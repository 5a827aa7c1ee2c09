package jsonlog

import "reflect"

// HandedOver is the number of values Append has given to encoding/json, for
// the external tests that encode other packages' types.
func HandedOver() int64 { return handedOver.Load() }

// WalkPlan calls visit for every member of every struct the reader's plan of
// t reaches: the struct, the member's field index, the name it is read under,
// and whether its value is encoding/json's. It reports whether t itself is
// read by a plan of the reader's, for the external tests of other packages'
// types.
func WalkPlan(t reflect.Type, visit func(st reflect.Type, field int, name string, foreign bool)) bool {
	var walk func(p *plan)
	walk = func(p *plan) {
		if p.elem != nil {
			walk(p.elem)
		}
		for k, m := range p.fields {
			q := p.plans[k]
			visit(p.typ, m.index, m.name[1:len(m.name)-2], q.kind == reflect.Invalid || q.elem != nil && q.elem.kind == reflect.Invalid)
			walk(q)
		}
	}
	p := planFor(t)
	walk(p)
	return p.kind == reflect.Struct
}
