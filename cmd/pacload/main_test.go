package main

import (
	"encoding/json"
	"testing"
)

// TestHotSetDistinctKeys: n hot bodies are n distinct keys, however n
// compares with the benchmark count, and the first pass over the
// benchmarks keeps seed 0 (the fleet base options).
func TestHotSetDistinctKeys(t *testing.T) {
	benches := []string{"GS", "STREAM", "BFS", "FFT"}
	for _, n := range []int{1, 3, 4, 8, 9, 17} {
		bodies := hotSet(benches, "pac", n)
		if len(bodies) != n {
			t.Fatalf("hotSet(%d) returned %d bodies", n, len(bodies))
		}
		seen := map[string]bool{}
		for i, b := range bodies {
			if seen[string(b)] {
				t.Errorf("n=%d: body %d repeats %s", n, i, b)
			}
			seen[string(b)] = true
			var req struct {
				Benchmark string
				Seed      uint64
			}
			if err := json.Unmarshal(b, &req); err != nil {
				t.Fatal(err)
			}
			if i < len(benches) && req.Seed != 0 {
				t.Errorf("n=%d: first-pass body %d has seed %d, want 0", n, i, req.Seed)
			}
		}
	}
}
