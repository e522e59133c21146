package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"

	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/store"
	"github.com/pacsim/pac/internal/wal"
)

// directCalls is how many direct store and journal calls a traced run
// times.
const directCalls = 32

// directStorage times direct calls into the store and the job journal on
// the filesystem the fleet uses: store.Put and store.Get of an entry
// holding the workload's own result, and one journaled job (Submit, then
// Done, each an fsync) with the workload's request body as payload.
func directStorage(dir string, res *sim.Result, payload []byte, tr *tracer) error {
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "direct-store")})
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("%016x", i+1) }
	for i := 0; i < directCalls; i++ {
		s := tr.begin("store.Put")
		err := st.Put(store.Entry{Key: key(i), OptionsHash: "direct", Benchmark: res.Name(),
			Mode: res.Mode.String(), Result: res})
		tr.end(s)
		if err != nil {
			st.Close()
			return err
		}
	}
	for i := 0; i < directCalls; i++ {
		s := tr.begin("store.Get")
		_, ok := st.Get(key(i))
		tr.end(s)
		if !ok {
			st.Close()
			return fmt.Errorf("direct store: entry %s missing", key(i))
		}
	}
	if err := st.Close(); err != nil {
		return err
	}

	log, _, err := wal.Open(wal.Config{Path: filepath.Join(dir, "direct.wal")})
	if err != nil {
		return err
	}
	for i := 0; i < directCalls; i++ {
		id := fmt.Sprintf("direct-%d", i)
		s := tr.begin("wal.append")
		err := log.Submit(id, "simulate", payload)
		if err == nil {
			err = log.Done(id)
		}
		tr.end(s)
		if err != nil {
			log.Close()
			return err
		}
	}
	return log.Close()
}

// peerMisses times GET /v1/store/{key} misses against one node: what a
// node pays per peer it asks on a local store miss.
func peerMisses(ctx context.Context, f *fleet, tr *tracer) error {
	for i := 0; i < directCalls; i++ {
		s := tr.begin("store.peer_miss")
		resp, _, err := getURL(ctx, f.client, fmt.Sprintf("%s/v1/store/%016x", f.nodes[i%len(f.nodes)].url, i+1))
		tr.end(s)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("peer store miss answered %d", resp.StatusCode)
		}
	}
	return nil
}

// reportDirect adds the direct-call metrics from the traced spans.
func reportDirect(res *result, layers map[string]layerTime) {
	res.add("store.get_ms", layers["store.Get"].meanMS(), "ms")
	res.add("store.put_ms", layers["store.Put"].meanMS(), "ms")
	res.add("store.peer_miss_ms", layers["store.peer_miss"].meanMS(), "ms")
	res.add("wal.append_ms", layers["wal.append"].meanMS(), "ms")
}
