package mshr

import "fmt"

// SaveState copies the file's state. Subentry slices are copied, so the
// snapshot stays valid while the run continues.
func (f *File) SaveState() FileState {
	st := f.FileState
	st.Entries = append([]Entry(nil), f.Entries...)
	for i := range st.Entries {
		st.Entries[i].Subs = append([]Subentry(nil), st.Entries[i].Subs...)
	}
	return st
}

// RestoreState overwrites the file's state from a snapshot taken on an
// identically configured file. The file keeps its own entry array and
// subentry backing arrays, so the snapshot is never aliased.
func (f *File) RestoreState(st FileState) error {
	if len(st.Entries) != len(f.Entries) {
		return fmt.Errorf("mshr: restoring %d entries into a %d-entry file", len(st.Entries), len(f.Entries))
	}
	entries := f.Entries
	for i := range entries {
		subs := append(entries[i].Subs[:0], st.Entries[i].Subs...)
		entries[i] = st.Entries[i]
		entries[i].Subs = subs
	}
	st.Entries = entries
	f.FileState = st
	return nil
}
