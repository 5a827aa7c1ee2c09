package jsonlog

// The one reader of the store's results and the wire's messages, the mirror
// of Append: one pass into the value off a per-type plan. Its grammar is in
// DESIGN §8 "One reader"; FuzzDecodeResult and FuzzWireDecode hold it to
// encoding/json.

import (
	"bytes"
	"encoding"
	"encoding/json"
	"reflect"
	"strconv"
	"sync"
	"unsafe"
)

// Reader is a type that reads its own JSON encoding, where encoding/json
// would call UnmarshalJSON: ReadJSON replaces the receiver by the value b
// starts with and returns its length; or -1, having written nothing, if that
// value is not in the type's own grammar.
type Reader interface {
	ReadJSON(b []byte) int
}

// Read reads the JSON value data starts with, after any whitespace, into the
// value the non-nil pointer v points to, and returns the index just after it;
// -1 if it is not in the reader's grammar, v then partly written. A member
// value outside it is given to decode (encoding/json, as strict as the
// caller's), which returns the length it read.
func Read(data []byte, v any, decode func(data []byte, v any) (int, error)) int {
	return planFor(reflect.TypeOf(v).Elem()).read(data, skipSpace(data, 0), reflect.ValueOf(v).UnsafePointer(), decode)
}

// Unmarshal is json.Unmarshal(data, v): the same error, and the same value
// left in *v. For a T that holds no pointer, slice, map or interface — a
// stats.Result — the reader takes the document if it can; a refused one is
// undone by copying *v back before encoding/json decodes it.
func Unmarshal[T any](data []byte, v *T) error {
	if p := planFor(reflect.TypeFor[T]()); p.flat && v != nil {
		saved := *v
		if n := p.read(data, skipSpace(data, 0), unsafe.Pointer(v), jsonValue); n >= 0 && skipSpace(data, n) == len(data) {
			return nil
		}
		*v = saved
	}
	return json.Unmarshal(data, v)
}

// jsonValue is encoding/json on the value data starts with.
func jsonValue(data []byte, v any) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	err := dec.Decode(v)
	return int(dec.InputOffset()), err
}

// plan is how the reader fills one Go type. kind is the type's own, except
// Invalid: a type that is encoding/json's alone (a map, an interface, a type
// with its own UnmarshalJSON). A slice without elem is a json.RawMessage.
type plan struct {
	typ    reflect.Type
	kind   reflect.Kind
	reader bool      // the type is a Reader
	flat   bool      // nothing in it is reached through a pointer, slice, map or interface
	elem   *plan     // of a pointer or slice
	fields []member  // of a struct: Append's members
	offs   []uintptr // their fields' offsets
	plans  []*plan   // and the plans of their types
}

var (
	plans sync.Map // reflect.Type → *plan, built on a type's first read

	readerType          = reflect.TypeFor[Reader]()
	unmarshalerType     = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
)

func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p, _ := plans.LoadOrStore(t, newPlan(t, map[reflect.Type]bool{}))
	return p.(*plan)
}

// newPlan builds t's plan, a struct's members from Append's plan: a field
// added to a struct is read under the name it is written under, with no
// second listing to forget. A type met again inside itself is
// encoding/json's there.
func newPlan(t reflect.Type, building map[reflect.Type]bool) *plan {
	if building[t] {
		return &plan{typ: t, kind: reflect.Invalid}
	}
	building[t] = true
	defer delete(building, t)
	p, pt := &plan{typ: t, kind: t.Kind()}, reflect.PointerTo(t)
	switch k := p.kind; {
	case t == rawMessageType:
	case pt.Implements(readerType):
		p.reader, p.flat = true, true
	case pt.Implements(unmarshalerType), pt.Implements(textUnmarshalerType):
		p.kind = reflect.Invalid
	case k == reflect.Pointer, k == reflect.Slice:
		p.elem = newPlan(t.Elem(), building)
	case k == reflect.Struct:
		if p.fields = EncoderOf(t).fields; p.fields == nil || len(p.fields) > 64 {
			p.kind = reflect.Invalid
		}
		p.flat = p.kind == reflect.Struct
		for _, m := range p.fields {
			f := t.Field(m.index)
			q := newPlan(f.Type, building)
			p.offs, p.plans, p.flat = append(p.offs, f.Offset), append(p.plans, q), p.flat && q.flat
		}
	case k == reflect.Bool, k == reflect.Int && t.Size() == 8, k == reflect.Int64, k == reflect.Uint64, k == reflect.Float64, k == reflect.String:
		p.flat = true
	default:
		p.kind = reflect.Invalid
	}
	return p
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

// read decodes the value at b[i] into the p.typ at ptr and returns the index
// after it; a case that does not return met something outside the grammar.
// What follows a scalar is for next, or the caller, to check.
func (p *plan) read(b []byte, i int, ptr unsafe.Pointer, decode func([]byte, any) (int, error)) int {
	if i >= len(b) {
		return -1
	}
	if p.reader {
		if n := reflect.NewAt(p.typ, ptr).Interface().(Reader).ReadJSON(b[i:]); n >= 0 {
			return i + n
		}
		return -1
	}
	switch p.kind {
	case reflect.String:
		if n := PlainLen(b[i+1:]); b[i] == '"' && n >= 0 {
			*(*string)(ptr) = string(b[i+1 : i+1+n])
			return i + n + 2
		}
	case reflect.Bool:
		t := b[i] == 't'
		if lit := strconv.FormatBool(t); bytes.HasPrefix(b[i:], []byte(lit)) {
			*(*bool)(ptr) = t
			return i + len(lit)
		}
	case reflect.Int, reflect.Int64: // an int of 64 bits (newPlan)
		if x, rest, ok := CutInt(b[i:]); ok {
			*(*int64)(ptr) = x
			return len(b) - len(rest)
		}
	case reflect.Uint64:
		if x, rest, ok := cutUint(b[i:]); ok {
			*(*uint64)(ptr) = x
			return len(b) - len(rest)
		}
	case reflect.Float64:
		// The grammar first: ParseFloat alone also takes "Inf", "0x1p-2" and ".5".
		n := max(number(b, i), i)
		if x, err := strconv.ParseFloat(string(b[i:n]), 64); err == nil {
			*(*float64)(ptr) = x
			return n
		}
	case reflect.Pointer:
		*(*unsafe.Pointer)(ptr) = reflect.New(p.elem.typ).UnsafePointer()
		return p.elem.read(b, i, *(*unsafe.Pointer)(ptr), decode)
	case reflect.Struct:
		return p.readObject(b, i, ptr, decode)
	case reflect.Slice:
		if p.elem != nil {
			return p.readArray(b, i, reflect.NewAt(p.typ, ptr).Elem(), decode)
		}
		if n := VerbatimLen(b[i:]); n >= 0 {
			*(*[]byte)(ptr) = b[i : i+n : i+n] // aliases the input: the decoders own the bytes they read
			return i + n
		}
	}
	return -1
}

// readArray decodes the array at b[i] into the slice v.
func (p *plan) readArray(b []byte, i int, v reflect.Value, decode func([]byte, any) (int, error)) int {
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
		if i, more = next(b, p.elem.read(b, i, v.Index(n).Addr().UnsafePointer(), decode), ']'); i < 0 {
			return -1
		}
	}
	return i
}

// readObject decodes the object at b[i] into the struct at ptr. The member
// after the last one read is tried first, by its `"name":` bytes as Append
// writes them. A member value the reader refuses is decoded by decode alone,
// into what the refused read left (what encoding/json had written by then:
// it merges), and the pass goes on.
func (p *plan) readObject(b []byte, i int, ptr unsafe.Pointer, decode func([]byte, any) (int, error)) int {
	if b[i] != '{' {
		return -1
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1
	}
	var seen uint64
	for k, more := 0, true; more; k++ {
		if k < len(p.fields) && len(b)-i >= len(p.fields[k].name) && string(b[i:i+len(p.fields[k].name)]) == p.fields[k].name {
			i += len(p.fields[k].name)
		} else if k, i = p.lookup(b, i, k); k < 0 {
			return -1
		}
		if seen&(1<<k) != 0 {
			return -1
		}
		seen |= 1 << k
		i = skipSpace(b, i)
		f, q := unsafe.Add(ptr, p.offs[k]), p.plans[k]
		n := q.read(b, i, f, decode)
		if n < 0 && i < len(b) {
			if m, err := decode(b[i:], reflect.NewAt(q.typ, f).Interface()); err == nil {
				n = i + m
			}
		}
		if i, more = next(b, n, '}'); i < 0 {
			return -1
		}
	}
	return i
}

// lookup finds the member named by the string at b[i], searching from the
// k-th on, and returns its index and the index after the colon, or -1.
func (p *plan) lookup(b []byte, i, k int) (int, int) {
	n := -1
	if i < len(b) && b[i] == '"' {
		n = PlainLen(b[i+1:])
	}
	if c := skipSpace(b, i+n+2); n >= 0 && c < len(b) && b[c] == ':' {
		for j := range p.fields {
			if j = (k + j) % len(p.fields); string(b[i+1:i+1+n]) == p.fields[j].name[1:len(p.fields[j].name)-2] {
				return j, c + 1
			}
		}
	}
	return -1, -1
}
