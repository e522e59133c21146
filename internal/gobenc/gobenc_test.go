package gobenc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

type inner struct {
	Name  string
	Times []time.Time // time.Time marshals itself
}

type sample struct {
	ID     int
	Inner  *inner
	Rows   [][]float64
	Counts map[string]uint64
	Fixed  [3]inner
	hidden any    // unexported: gob skips it
	Notify func() // func fields are skipped too
}

func sampleValue(i int) *sample {
	s := &sample{ID: i, Counts: map[string]uint64{}}
	if i%2 == 1 {
		s.Inner = &inner{Name: fmt.Sprint("v", i), Times: []time.Time{time.Unix(int64(i), 0).UTC()}}
	}
	for k := 0; k < i; k++ {
		s.Rows = append(s.Rows, []float64{float64(k), 0.5})
	}
	// One key at most: gob writes a map in iteration order, so only a
	// map of one entry has a single encoding to compare against.
	if i > 0 {
		s.Counts["n"] = uint64(i)
	}
	s.Fixed[i%3].Name = "slot"
	return s
}

func fresh(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncoderMatchesFreshEncoder: every value encodes to the bytes a new
// gob.Encoder writes for it, whether it is the first value or a later
// one, and the result decodes.
func TestEncoderMatchesFreshEncoder(t *testing.T) {
	var enc Encoder[sample]
	for i := 0; i < 6; i++ {
		v := sampleValue(i)
		var got bytes.Buffer
		if err := enc.Encode(&got, v); err != nil {
			t.Fatal(err)
		}
		if want := fresh(t, v); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("value %d: %d bytes, fresh encoder %d bytes", i, got.Len(), len(want))
		}
		var back sample
		if err := gob.NewDecoder(&got).Decode(&back); err != nil {
			t.Fatalf("value %d: decode: %v", i, err)
		}
		if back.ID != v.ID || len(back.Rows) != len(v.Rows) {
			t.Fatalf("value %d: decoded %+v", i, back)
		}
	}
}

// TestEncoderConcurrent: callers on many goroutines each get their own
// self-contained stream.
func TestEncoderConcurrent(t *testing.T) {
	var enc Encoder[sample]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := sampleValue(g + i%5)
				var got bytes.Buffer
				if err := enc.Encode(&got, v); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), fresh(t, v)) {
					t.Errorf("goroutine %d value %d differs from a fresh encoding", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

type withInterface struct {
	A     int
	Inner struct{ Payload []any }
}

// TestEncoderRefusesInterfaceFields: a type whose descriptors would
// depend on the value is refused, and the field is named.
func TestEncoderRefusesInterfaceFields(t *testing.T) {
	if p := InterfaceField(reflect.TypeFor[sample]()); p != "" {
		t.Fatalf("sample: InterfaceField = %q, want none", p)
	}
	const want = "gobenc.withInterface.Inner.Payload[]"
	if p := InterfaceField(reflect.TypeFor[withInterface]()); p != want {
		t.Fatalf("InterfaceField = %q, want %q", p, want)
	}
	var enc Encoder[withInterface]
	if err := enc.Encode(&bytes.Buffer{}, &withInterface{}); err == nil {
		t.Fatal("Encode accepted a type with an interface field")
	}
}
