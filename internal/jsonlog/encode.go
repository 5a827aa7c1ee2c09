package jsonlog

// The one writer of the store's lines, the wire's messages and the result
// payload inside both. Append encodes a value from a plan built once per
// type, by reflection, out of the rules encoding/json applies — member names
// and omitempty from the tags, declaration order, null for a nil pointer or
// slice — and the field writers of append.go. A type the plan does not cover
// (a map, an interface, a Marshaler that is not an Appender, a tag option
// other than omitempty, an embedded field) is handed to encoding/json where
// it occurs, so the bytes and the errors are json.Marshal's throughout;
// FuzzAppend holds them equal.

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Appender is a type that appends its own JSON encoding, compact: the bytes
// its MarshalJSON returns. Append calls it where encoding/json would call
// MarshalJSON and then re-scan what that returned.
type Appender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// Append appends the JSON encoding of v to b: byte for byte what
// json.Marshal(v) returns, and an error exactly when json.Marshal has one,
// with b then returned as it was.
func Append(b []byte, v any) ([]byte, error) {
	if v == nil {
		return append(b, "null"...), nil
	}
	rv := reflect.ValueOf(v)
	return EncoderOf(rv.Type()).Append(b, rv)
}

// Encoder is the plan by which Append writes one Go type. kind is the type's
// own, except Invalid: a type that is encoding/json's alone.
type Encoder struct {
	kind     reflect.Kind
	appender bool     // the type is an Appender
	int64s   bool     // the type is []int64: a histogram's buckets, read without reflection
	elem     *Encoder // of a pointer or slice; nil for a json.RawMessage
	fields   []member // of a struct, in declaration order
}

// member is one struct field that encodes: where it is, its `"name":`, and
// whether a zero value leaves it out.
type member struct {
	index     int
	name      string
	omitEmpty bool
	enc       *Encoder
}

var (
	encoders sync.Map // reflect.Type → *Encoder

	appenderType      = reflect.TypeFor[Appender]()
	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
	rawMessageType    = reflect.TypeFor[json.RawMessage]()
	int64sType        = reflect.TypeFor[[]int64]()
)

// handedOver counts values given to encoding/json; the store's and the
// wire's own messages must not move it (TestWriterTakesPlan).
var handedOver atomic.Int64

// EncoderOf returns t's plan, built on its first use.
func EncoderOf(t reflect.Type) *Encoder {
	if e, ok := encoders.Load(t); ok {
		return e.(*Encoder)
	}
	e, _ := encoders.LoadOrStore(t, newEncoder(t, map[reflect.Type]bool{}))
	return e.(*Encoder)
}

// Append is jsonlog.Append for a v of the encoder's type, without looking the
// plan up: for a caller that writes one type many times.
func (e *Encoder) Append(b []byte, v reflect.Value) ([]byte, error) {
	out, err := e.append(b, v)
	if err != nil {
		return b, err
	}
	return out, nil
}

// newEncoder builds t's plan. A type met again inside itself is left to
// encoding/json there, which reports a cyclic value where this would recurse.
func newEncoder(t reflect.Type, building map[reflect.Type]bool) *Encoder {
	e := &Encoder{kind: t.Kind()}
	if building[t] {
		e.kind = reflect.Invalid
		return e
	}
	building[t] = true
	defer delete(building, t)
	pt := reflect.PointerTo(t)
	switch k := e.kind; {
	case t == rawMessageType:
	case k == reflect.Pointer:
		e.elem = newEncoder(t.Elem(), building)
	case k != reflect.Interface && t.Implements(appenderType):
		e.appender = true
	case pt.Implements(marshalerType), pt.Implements(textMarshalerType):
		e.kind = reflect.Invalid
	case k == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		e.kind = reflect.Invalid // base64, or a Marshaler per byte
	case k == reflect.Slice:
		e.elem, e.int64s = newEncoder(t.Elem(), building), t == int64sType
	case k == reflect.Struct:
		if e.fields = fieldsOf(t, building); e.fields == nil {
			e.kind = reflect.Invalid
		}
	case k == reflect.Bool, k == reflect.String, k == reflect.Float64,
		k >= reflect.Int && k <= reflect.Uintptr:
	default: // float32, maps, interfaces, arrays; and what does not encode at all
		e.kind = reflect.Invalid
	}
	return e
}

// fieldsOf returns the members of struct t as encoding/json names them, or
// nil if a field needs a rule the plan does not implement.
func fieldsOf(t reflect.Type, building map[reflect.Type]bool) []member {
	fields := []member{}
	seen := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if f.Anonymous {
			return nil
		}
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		if (opts != "" && opts != "omitempty") || !plainName(name) || seen[name] {
			return nil
		}
		seen[name] = true
		fields = append(fields, member{i, `"` + name + `":`, opts == "omitempty", newEncoder(f.Type, building)})
	}
	return fields
}

// plainName reports whether a member name is one encoding/json takes from
// the tag as it is and writes without escaping.
func plainName(s string) bool {
	for _, c := range []byte(s) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-' || c == '.') {
			return false
		}
	}
	return s != ""
}

// append appends v's encoding; after an error, what it appended is garbage.
func (e *Encoder) append(b []byte, v reflect.Value) ([]byte, error) {
	if e.appender {
		if v.CanAddr() { // through the pointer: v is not copied into an interface
			return v.Addr().Interface().(Appender).AppendJSON(b)
		}
		return v.Interface().(Appender).AppendJSON(b)
	}
	switch e.kind {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case reflect.String:
		return AppendString(b, v.String()), nil
	case reflect.Float64:
		return AppendFloat(b, v.Float())
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case reflect.Struct:
		return e.appendObject(b, v)
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return e.elem.append(b, v.Elem())
	case reflect.Slice:
		switch {
		case v.IsNil():
			return append(b, "null"...), nil
		case e.elem == nil:
			return AppendRaw(b, v.Bytes())
		case e.int64s && v.CanAddr():
			return appendInt64s(b, *v.Addr().Interface().(*[]int64)), nil
		}
		return e.appendArray(b, v)
	}
	handedOver.Add(1)
	if v.CanAddr() { // as encoding/json sees it: a pointer method applies
		v = v.Addr()
	}
	enc, err := json.Marshal(v.Interface())
	return append(b, enc...), err
}

func (e *Encoder) appendObject(b []byte, v reflect.Value) (_ []byte, err error) {
	b = append(b, '{')
	first := true
	for i := range e.fields {
		m := &e.fields[i]
		f := v.Field(m.index)
		if m.omitEmpty && isEmpty(f) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		if b, err = m.enc.append(append(b, m.name...), f); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

func (e *Encoder) appendArray(b []byte, v reflect.Value) (_ []byte, err error) {
	b = append(b, '[')
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = e.elem.append(b, v.Index(i)); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

func appendInt64s(b []byte, s []int64) []byte {
	b = append(b, '[')
	for i, x := range s {
		if i > 0 {
			b = append(b, ',')
		}
		if x == 0 { // most buckets are empty
			b = append(b, '0')
		} else {
			b = strconv.AppendInt(b, x, 10)
		}
	}
	return append(b, ']')
}

// isEmpty is omitempty's test, as encoding/json has it: false, 0, "", a nil
// pointer or interface, an empty slice, map or array. A struct is never empty.
func isEmpty(v reflect.Value) bool {
	switch k := v.Kind(); {
	case k == reflect.Array, k == reflect.Map, k == reflect.Slice, k == reflect.String:
		return v.Len() == 0
	case k == reflect.Bool:
		return !v.Bool()
	case k >= reflect.Int && k <= reflect.Int64:
		return v.Int() == 0
	case k >= reflect.Uint && k <= reflect.Uintptr:
		return v.Uint() == 0
	case k == reflect.Float32, k == reflect.Float64:
		return v.Float() == 0
	case k == reflect.Interface, k == reflect.Pointer:
		return v.IsNil()
	}
	return false
}
