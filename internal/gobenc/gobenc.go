// Package gobenc writes gob streams of one value each, as a fresh
// gob.Encoder would, without deriving and re-sending the type
// descriptors for every value.
//
// A gob stream opens with the descriptors of the value's type and of
// every type it contains, then carries the value message. A new encoder
// per file pays for the descriptors each time. An Encoder sends them
// once, to capture them as a prefix, and from then on encodes only the
// value message, writing the prefix before it: the bytes are those a
// fresh encoder writes.
package gobenc

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"sync"
)

// Encoder encodes values of type T, one self-contained gob stream per
// call. The zero value is ready to use and is safe for concurrent use.
//
// T must hold no interface-typed field: gob sends an interface's
// concrete type descriptors when a value first carries it, so the
// descriptors would depend on the value. Encode refuses such a T.
type Encoder[T any] struct {
	mu     sync.Mutex
	out    target // the writer of the call in progress
	enc    *gob.Encoder
	prefix []byte
	err    error // set when the prefix could not be captured
}

// target forwards to the writer of the Encode call in progress, so one
// gob.Encoder serves every call.
type target struct{ w io.Writer }

func (t *target) Write(p []byte) (int, error) { return t.w.Write(p) }

// Encode writes v as a gob stream of its own to w: the same bytes
// gob.NewEncoder(w).Encode(v) writes. On error, w may hold part of it.
func (e *Encoder[T]) Encode(w io.Writer, v *T) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.enc == nil && e.err == nil {
		e.err = e.capture()
	}
	if e.err != nil {
		return e.err
	}
	if _, err := w.Write(e.prefix); err != nil {
		return err
	}
	e.out.w = w
	defer func() { e.out.w = nil }()
	return e.enc.Encode(v)
}

// capture sends T's descriptors once and keeps them as the prefix: a
// first encoding of the zero value is the descriptors and the value
// message, a second one is the message alone.
func (e *Encoder[T]) capture() error {
	typ := reflect.TypeFor[T]()
	if path := InterfaceField(typ); path != "" {
		return fmt.Errorf("gobenc: %v holds interface field %s", typ, path)
	}
	var buf bytes.Buffer
	e.out.w = &buf
	defer func() { e.out.w = nil }()
	enc := gob.NewEncoder(&e.out)
	var zero T
	if err := enc.Encode(&zero); err != nil {
		return err
	}
	first := buf.Len()
	if err := enc.Encode(&zero); err != nil {
		return err
	}
	msg := buf.Len() - first
	e.prefix = bytes.Clone(buf.Bytes()[:first-msg])
	e.enc = enc
	return nil
}

var (
	gobEncoderType    = reflect.TypeFor[gob.GobEncoder]()
	binaryMarshalType = reflect.TypeFor[encoding.BinaryMarshaler]()
	textMarshalType   = reflect.TypeFor[encoding.TextMarshaler]()
)

// InterfaceField returns the path of the first interface-typed field
// gob would encode in a value of type t ("" if there is none). It
// follows what gob sends: exported struct fields, pointer, slice, array
// and map element types, and it stops at types that marshal themselves.
// Fields of chan and func type are skipped, as gob skips them.
func InterfaceField(t reflect.Type) string {
	return interfaceField(t, t.String(), map[reflect.Type]bool{})
}

func interfaceField(t reflect.Type, path string, seen map[reflect.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if t.Kind() == reflect.Interface {
		return path
	}
	for _, m := range []reflect.Type{gobEncoderType, binaryMarshalType, textMarshalType} {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return ""
		}
	}
	switch t.Kind() {
	case reflect.Pointer:
		return interfaceField(t.Elem(), path, seen)
	case reflect.Slice, reflect.Array:
		return interfaceField(t.Elem(), path+"[]", seen)
	case reflect.Map:
		if p := interfaceField(t.Key(), path+"{key}", seen); p != "" {
			return p
		}
		return interfaceField(t.Elem(), path+"{}", seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Type.Kind() == reflect.Chan || f.Type.Kind() == reflect.Func {
				continue
			}
			if p := interfaceField(f.Type, path+"."+f.Name, seen); p != "" {
				return p
			}
		}
	}
	return ""
}
