package specv1

// The one-pass reader under every strict decoder of the package. It takes
// the JSON our writers emit and users edit — whitespace anywhere, members in
// any order or omitted, plain-ASCII strings, numbers in their field's range,
// true and false, compact result payloads — and reports "not mine" (-1) for
// the rest: an unknown, differently-cased or duplicate member, an escape,
// non-ASCII, null outside a payload, a type without a plan. Those bytes are
// encoding/json's, values and errors: the one member value (member), else the
// whole document (decodeValue). FuzzWireDecode checks it.

import (
	"bytes"
	"encoding"
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"flexsim/internal/jsonlog"
)

// plan is how the reader fills one Go type. kind is the type's own, except
// Invalid: a type that is encoding/json's alone (a map, an interface, a type
// with its own UnmarshalJSON). A slice without elem is a json.RawMessage.
type plan struct {
	typ    reflect.Type
	kind   reflect.Kind
	elem   *plan    // of a pointer or slice
	fields []string // of a struct: member names from the json tags, by field index
	plans  []*plan  // and the plans of their types
}

var plans sync.Map // reflect.Type → *plan, built on a type's first decode

// planOf builds t's plan from the type itself, so a member added to a wire
// struct is read under its tag without a second listing to forget.
func planOf(t reflect.Type) *plan {
	p := &plan{typ: t, kind: t.Kind()}
	pt := reflect.PointerTo(t)
	switch k := p.kind; {
	case t == reflect.TypeFor[json.RawMessage]():
	case pt.Implements(reflect.TypeFor[json.Unmarshaler]()), pt.Implements(reflect.TypeFor[encoding.TextUnmarshaler]()):
		p.kind = reflect.Invalid
	case k == reflect.Pointer, k == reflect.Slice:
		p.elem = planOf(t.Elem())
	case k == reflect.Struct:
		for i := 0; i < t.NumField() && p.kind == reflect.Struct; i++ {
			f := t.Field(i)
			name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name == "-" || (opts != "" && opts != "omitempty") || f.Anonymous || !f.IsExported() || i >= 64 {
				p.kind = reflect.Invalid // the tag rules the reader does not implement
			}
			p.fields, p.plans = append(p.fields, name), append(p.plans, planOf(f.Type))
		}
	case k != reflect.Bool && k != reflect.Int && k != reflect.Int64 && k != reflect.Uint64 && k != reflect.Float64 && k != reflect.String:
		p.kind = reflect.Invalid
	}
	return p
}

// decodeValue decodes the JSON value data starts with into the zero value v
// points at and returns its length: by the reader if it is in the grammar, else
// by encoding/json — the reader's specification — from the same bytes, afresh.
func decodeValue[T any](data []byte, v *T) (int, error) {
	rv := reflect.ValueOf(v).Elem()
	p, ok := plans.Load(rv.Type())
	if !ok {
		p, _ = plans.LoadOrStore(rv.Type(), planOf(rv.Type()))
	}
	if n := p.(*plan).read(data, skipSpace(data, 0), rv); n >= 0 {
		return n, nil
	}
	*v = *new(T)
	return jsonValue(data, v)
}

// jsonValue is encoding/json, strict, on the value data starts with.
func jsonValue(data []byte, v any) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	return int(dec.InputOffset()), err
}

// skipSpace returns the index of the first byte of b at or after i that is
// not JSON whitespace; a negative i ("not mine") passes through.
func skipSpace(b []byte, i int) int {
	for uint(i) < uint(len(b)) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// next steps over what follows a value in an array or object: a comma, to the
// next value or name (more), or closer, to the index after it; else -1.
func next(b []byte, i int, closer byte) (_ int, more bool) {
	if i = skipSpace(b, i); i < 0 || i == len(b) || (b[i] != ',' && b[i] != closer) {
		return -1, false
	}
	if b[i] == closer {
		return i + 1, false
	}
	return skipSpace(b, i+1), true
}

// read decodes the value at b[i] into v and returns the index after it; a
// case that does not return met something outside the grammar. What follows a
// scalar is for next, or decodeStrict, to check.
func (p *plan) read(b []byte, i int, v reflect.Value) int {
	if i >= len(b) {
		return -1
	}
	switch p.kind {
	case reflect.String:
		if n := jsonlog.PlainLen(b[i+1:]); b[i] == '"' && n >= 0 {
			v.SetString(string(b[i+1 : i+1+n]))
			return i + n + 2
		}
	case reflect.Bool:
		t := b[i] == 't'
		if lit := strconv.FormatBool(t); bytes.HasPrefix(b[i:], []byte(lit)) {
			v.SetBool(t)
			return i + len(lit)
		}
	case reflect.Int, reflect.Int64:
		if x, rest, ok := jsonlog.CutInt(b[i:]); ok && !v.OverflowInt(x) {
			v.SetInt(x)
			return len(b) - len(rest)
		}
	case reflect.Uint64:
		if x, rest, ok := jsonlog.CutUint(b[i:]); ok {
			v.SetUint(x)
			return len(b) - len(rest)
		}
	case reflect.Float64:
		// The grammar first: ParseFloat alone also takes "Inf", "0x1p-2" and ".5".
		n := max(jsonlog.NumberLen(b[i:]), 0)
		if x, err := strconv.ParseFloat(string(b[i:i+n]), 64); err == nil {
			v.SetFloat(x)
			return i + n
		}
	case reflect.Pointer:
		v.Set(reflect.New(p.elem.typ))
		return p.elem.read(b, i, v.Elem())
	case reflect.Struct:
		return p.readObject(b, i, v)
	case reflect.Slice:
		if p.elem != nil {
			return p.readArray(b, i, v)
		}
		if n := jsonlog.VerbatimLen(b[i:]); n >= 0 {
			v.SetBytes(b[i : i+n : i+n]) // aliases the input: the decoders own the bytes they read
			return i + n
		}
	}
	return -1
}

// readArray decodes the array at b[i] into the slice v.
func (p *plan) readArray(b []byte, i int, v reflect.Value) int {
	if b[i] != '[' {
		return -1
	}
	v.Set(reflect.MakeSlice(p.typ, 0, 0)) // [] decodes to an empty slice, not a nil one
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1
	}
	for n, more := 0, true; more; n++ {
		if n == v.Cap() {
			v.Grow(n + 1) // doubling: past 256 elements Grow(1) adds a quarter, and a spec has thousands
		}
		v.SetLen(n + 1)
		if i, more = next(b, p.elem.read(b, i, v.Index(n)), ']'); i < 0 {
			return -1
		}
	}
	return i
}

// readObject decodes the object at b[i] into the struct v. A member is looked
// up from the one after the last, so declaration order costs one comparison.
func (p *plan) readObject(b []byte, i int, v reflect.Value) int {
	if b[i] != '{' {
		return -1
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1
	}
	var seen uint64
	for k, more := 0, true; more; k++ {
		if i >= len(b) || b[i] != '"' {
			return -1
		}
		n := jsonlog.PlainLen(b[i+1:])
		if n < 0 {
			return -1
		}
		name := string(b[i+1 : i+1+n]) // short and not kept: no allocation
		if j := slices.Index(p.fields[k:], name); j >= 0 {
			k += j
		} else if k = slices.Index(p.fields[:k], name); k < 0 {
			return -1
		}
		if i = skipSpace(b, i+n+2); seen&(1<<k) != 0 || i >= len(b) || b[i] != ':' {
			return -1
		}
		seen |= 1 << k
		if i, more = next(b, p.plans[k].member(b, skipSpace(b, i+1), v.Field(k)), '}'); i < 0 {
			return -1
		}
	}
	return i
}

// handedOver counts member's calls of encoding/json; the writers' own output
// must not move it (TestWireTakesFastPath).
var handedOver atomic.Int64

// member is read for the value of an object member. One the reader refuses —
// a fault event, an escaped label, a null — is decoded by encoding/json alone
// and the pass goes on: it does not send a spec's other points to the fallback.
func (p *plan) member(b []byte, i int, v reflect.Value) int {
	if n := p.read(b, i, v); n >= 0 || i >= len(b) {
		return n
	}
	handedOver.Add(1)
	v.SetZero() // of whatever the refused read left in it
	if n, err := jsonValue(b[i:], v.Addr().Interface()); err == nil {
		return i + n
	}
	return -1
}
