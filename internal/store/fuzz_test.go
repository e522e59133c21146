package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzJournal holds the index-journal line parser to its contract under
// hostile input: never panic, never accept a line formatRecord could not
// have produced, and stay a lossless inverse of formatRecord for every
// line it does accept — the property boot replay leans on when it skips
// torn or bit-flipped records instead of corrupting the index. The seed
// corpus under testdata/fuzz/FuzzJournal covers each op plus torn,
// truncated and bit-flipped variants; CI runs a short -fuzz smoke on top
// of the always-on corpus replay.
func FuzzJournal(f *testing.F) {
	const key = "9b2f00aa13d4e8c7"
	seeds := []string{
		strings.TrimSuffix(formatRecord("put", key, 4096), "\n"),
		strings.TrimSuffix(formatRecord("put", strings.Repeat("a0", 128), 1), "\n"),
		strings.TrimSuffix(formatRecord("touch", key, 4096), "\n"),
		strings.TrimSuffix(formatRecord("del", key, 0), "\n"),
		"put " + key + " 4096#0",                                     // wrong CRC
		"put " + key + " 4096",                                       // no checksum
		"#",                                                          // empty body
		"put  " + key + " 4096#0",                                    // double space
		"get " + key + " 4096#" + journalCRC("get "+key+" 4096"),     // unknown op, valid CRC
		"put " + key + " -1#" + journalCRC("put "+key+" -1"),         // negative size, valid CRC
		"put UPPERCASE 1#" + journalCRC("put UPPERCASE 1"),           // invalid key, valid CRC
		"put " + key + " 4096 x#" + journalCRC("put "+key+" 4096 x"), // extra field, valid CRC
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		op, key, size, ok := parseRecord(line)
		if !ok {
			return
		}
		// Anything accepted must survive a format→parse round trip
		// unchanged: the parser only admits canonical lines.
		out := formatRecord(op, key, size)
		op2, key2, size2, ok2 := parseRecord(strings.TrimSuffix(out, "\n"))
		if !ok2 {
			t.Fatalf("reformatted record rejected: %q -> %q", line, out)
		}
		if op2 != op || key2 != key || size2 != size {
			t.Fatalf("round trip diverged: (%s %s %d) -> (%s %s %d)", op, key, size, op2, key2, size2)
		}
		if op != "put" && op != "touch" && op != "del" {
			t.Fatalf("parser accepted unknown op %q", op)
		}
		if !ValidKey(key) {
			t.Fatalf("parser accepted invalid key %q", key)
		}
		if size < 0 {
			t.Fatalf("parser accepted negative size %d", size)
		}
	})
}

// journalCRC computes a line body's checksum suffix, so seeds can carry
// a valid CRC over an otherwise malformed body.
func journalCRC(body string) string {
	return strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(body))), 16)
}

// FuzzEntry holds the envelope readers to their contract under hostile
// input. DecodeEntry, decodeAnswer (the hit path's checksum-only read)
// and Verify must never panic. Every blob DecodeEntry accepts must also
// be accepted by decodeAnswer with the same identity, and by Verify,
// whose kept envelope must answer with this node's rendering of the
// result; Verify keeps the blob verbatim exactly when it is version 2 and
// its answer section is that rendering. An accepted blob taken as it came
// re-encodes byte-identically.
//
// With reseal set, the payload checksum is recomputed before decoding, so
// mutations reach the section and gob parsers instead of stopping at the
// SHA-256 check. Such a blob may carry a non-canonical gob stream (gob
// decodes several encodings of one value), so for it the byte-identity
// property is checked on its re-encoding, which must be a fixed point.
// The seed corpus under testdata/fuzz/FuzzEntry holds a version-1
// envelope (the same bytes as testdata/v1.res) and a version-2 one.
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
		a, aerr := decodeAnswer("", blob)
		v, verr := Verify("", blob)
		if err != nil {
			if verr == nil {
				t.Fatalf("Verify accepted a blob DecodeEntry rejects (%v)", err)
			}
			return
		}
		want, err := json.Marshal(e.Result)
		if err != nil {
			// A result JSON cannot carry (a NaN mean) has no answer to
			// render: Verify must refuse it, as must the answer reader of
			// a version-1 envelope, which renders.
			if env, _ := openEnvelope("", blob); verr == nil || (env.version == versionV1 && aerr == nil) {
				t.Fatalf("unrenderable result accepted (render: %v)", err)
			}
			return
		}
		if aerr != nil || verr != nil {
			t.Fatalf("DecodeEntry accepted a blob decodeAnswer (%v) or Verify (%v) rejects", aerr, verr)
		}
		if a.OptionsHash != e.OptionsHash || a.Benchmark != e.Benchmark || a.Mode != e.Mode {
			t.Fatalf("answer identity %s/%s/%s, entry %s/%s/%s",
				a.OptionsHash, a.Benchmark, a.Mode, e.OptionsHash, e.Benchmark, e.Mode)
		}
		if !bytes.Equal(v.Answer, want) {
			t.Fatal("Verify's answer is not the rendering of the decoded result")
		}
		kept, err := decodeAnswer("", v.blob)
		if err != nil || !bytes.Equal(kept.JSON, want) ||
			kept.OptionsHash != e.OptionsHash || kept.Benchmark != e.Benchmark || kept.Mode != e.Mode {
			t.Fatalf("kept envelope answers inconsistently (%v)", err)
		}
		// The kept envelope's own re-encoding is a fixed point: decoding it
		// and encoding again reproduces it byte for byte.
		ke, err := DecodeEntry("", v.blob)
		if err != nil {
			t.Fatalf("kept envelope does not decode: %v", err)
		}
		re, err := encodeEntry(ke, kept.JSON)
		if err != nil {
			t.Fatal(err)
		}
		re2, err := DecodeEntry("", re)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if re3, err := encodeEntry(re2, kept.JSON); err != nil || !bytes.Equal(re3, re) {
			t.Fatalf("re-encoding is not byte-identical (%v)", err)
		}
		env, _ := openEnvelope("", blob)
		if stale := env.version != version || !bytes.Equal(a.JSON, want); v.Rebuilt != stale {
			t.Fatalf("Verify rebuilt=%v for a version-%d envelope whose answer matches=%v",
				v.Rebuilt, env.version, bytes.Equal(a.JSON, want))
		}
		if reseal {
			return
		}
		if re := reencode(t, blob, e, a); !bytes.Equal(re, blob) {
			t.Fatal("accepted envelope does not re-encode byte-identically")
		}
	})
}

// reencode encodes e again in blob's own envelope version.
func reencode(t *testing.T, blob []byte, e Entry, a Answer) []byte {
	t.Helper()
	env, err := openEnvelope("", blob)
	if err != nil {
		t.Fatal(err)
	}
	if env.version == version {
		re, err := encodeEntry(e, a.JSON)
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		t.Fatal(err)
	}
	return seal(e.Key, versionV1, payload.Bytes())
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
