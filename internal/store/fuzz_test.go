package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzEntry holds the envelope readers to their contract under hostile
// input. DecodeEntry, openEnvelope (Answer's checksum-only read) and
// verifyOrphan must never panic, and only a version-2 envelope is ever
// accepted: the version-1 seed (the same bytes as testdata/v1.res) and
// its mutations are rejected by all three. Every blob DecodeEntry accepts
// is accepted by openEnvelope with the same identity. verifyOrphan
// accepts exactly the blobs DecodeEntry accepts whose answer section is
// the rendering of their decoded result, so a forged answer (the third
// seed) in a file found at Open is never served. An accepted blob
// re-encodes byte-identically.
//
// With reseal set, the payload checksum is recomputed before decoding, so
// mutations reach the section and gob parsers instead of stopping at the
// SHA-256 check. Such a blob may carry a non-canonical gob stream (gob
// decodes several encodings of one value), so for it the byte-identity
// property is checked on its re-encoding, which must be a fixed point.
func FuzzEntry(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.res"))
	if err != nil {
		f.Fatal(err)
	}
	v2, err := EncodeEntry(testEntry(key(0), 5000))
	if err != nil {
		f.Fatal(err)
	}
	forged, err := encodeEntry(testEntry(key(0), 5000), []byte(`{"Cycles":1}`))
	if err != nil {
		f.Fatal(err)
	}
	for _, blob := range [][]byte{v1, v2, forged} {
		f.Add(blob, false)
		f.Add(blob[:len(blob)-1], true)
	}
	f.Fuzz(func(t *testing.T, blob []byte, reseal bool) {
		if reseal {
			blob = resealed(blob)
		}
		e, err := DecodeEntry("", blob)
		env, eerr := openEnvelope("", blob)
		verr := verifyOrphan("", blob)
		if h := len(magic); len(blob) >= h+2 && binary.BigEndian.Uint16(blob[h:]) != version &&
			(err == nil || eerr == nil || verr == nil) {
			t.Fatalf("version-%d envelope accepted", binary.BigEndian.Uint16(blob[h:]))
		}
		if err != nil {
			if verr == nil {
				t.Fatalf("verifyOrphan accepted a blob DecodeEntry rejects (%v)", err)
			}
			return
		}
		if eerr != nil {
			t.Fatalf("DecodeEntry accepted a blob openEnvelope rejects (%v)", eerr)
		}
		a := env.answer
		if a.OptionsHash != e.OptionsHash || a.Benchmark != e.Benchmark || a.Mode != e.Mode {
			t.Fatalf("answer identity %s/%s/%s, entry %s/%s/%s",
				a.OptionsHash, a.Benchmark, a.Mode, e.OptionsHash, e.Benchmark, e.Mode)
		}
		// A result JSON cannot carry (a NaN mean) has no rendering, so its
		// answer section cannot be one.
		want, merr := json.Marshal(e.Result)
		if consistent := merr == nil && bytes.Equal(a.JSON, want); consistent != (verr == nil) {
			t.Fatalf("verifyOrphan err=%v for an envelope whose answer is its rendering=%v", verr, consistent)
		}
		// The re-encoding is a fixed point: decoding it and encoding again
		// reproduces it byte for byte.
		re, err := encodeEntry(e, a.JSON)
		if err != nil {
			t.Fatal(err)
		}
		re2, err := DecodeEntry("", re)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if re3, err := encodeEntry(re2, a.JSON); err != nil || !bytes.Equal(re3, re) {
			t.Fatalf("re-encoding is not byte-identical (%v)", err)
		}
		if !reseal && !bytes.Equal(re, blob) {
			t.Fatal("accepted envelope does not re-encode byte-identically")
		}
	})
}

// resealed returns blob with its payload length and checksum recomputed
// over whatever follows the header, or blob unchanged when it has no
// complete header.
func resealed(blob []byte) []byte {
	h := len(magic) + 2 + 2
	if len(blob) < h {
		return blob
	}
	h += int(binary.BigEndian.Uint16(blob[len(magic)+2:])) + 8 + sha256.Size
	if len(blob) < h {
		return blob
	}
	out := append([]byte(nil), blob...)
	binary.BigEndian.PutUint64(out[h-8-sha256.Size:], uint64(len(out)-h))
	sum := sha256.Sum256(out[h:])
	copy(out[h-sha256.Size:], sum[:])
	return out
}
