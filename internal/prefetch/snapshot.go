package prefetch

import (
	"fmt"
	"slices"
)

// SaveState copies the prefetcher's state. The output buffer is
// per-Observe scratch and is not part of it.
func (p *Prefetcher) SaveState() PrefetcherState {
	st := p.PrefetcherState
	st.Tables = make([][]StreamEntry, len(p.Tables))
	for c, table := range p.Tables {
		st.Tables[c] = slices.Clone(table)
	}
	return st
}

// RestoreState overwrites the prefetcher's state from a snapshot taken on
// an identically configured prefetcher, keeping its own tables.
func (p *Prefetcher) RestoreState(st PrefetcherState) error {
	if len(st.Tables) != len(p.Tables) {
		return fmt.Errorf("prefetch: restoring %d core tables into %d-core prefetcher", len(st.Tables), len(p.Tables))
	}
	for c, rows := range st.Tables {
		if len(rows) != len(p.Tables[c]) {
			return fmt.Errorf("prefetch: restoring %d entries into %d-entry table", len(rows), len(p.Tables[c]))
		}
		copy(p.Tables[c], rows)
	}
	st.Tables = p.Tables
	p.PrefetcherState = st
	p.outBuf = p.outBuf[:0]
	return nil
}
