package arena

// Snapshot helpers: the checkpoint layer in internal/sim serializes
// component state mid-run, and the deque/set internals (ring offsets,
// probe-table layout) are implementation details that must not leak into
// the on-disk format. These helpers export *contents* only; restoring
// re-inserts through the normal mutation paths, so a restored container
// is behaviourally identical even when its internal layout differs.

// AppendKeys appends the set's keys to dst in unspecified order and
// returns the extended slice. Sets are membership-only containers — no
// caller observes iteration order — so a caller saving the keys sorts
// them to keep encodings canonical.
func (s *U64Set) AppendKeys(dst []uint64) []uint64 {
	if s.hasZero {
		dst = append(dst, 0)
	}
	for _, k := range s.table {
		if k != 0 {
			dst = append(dst, k)
		}
	}
	return dst
}

// AppendKeys appends the set's keys to dst and returns the extended
// slice.
func (s *SmallSet) AppendKeys(dst []uint64) []uint64 {
	return append(dst, s.keys...)
}

// SaveDeque copies the deque's elements, front to back, into a fresh
// slice (nil for an empty deque).
func SaveDeque[T any](q *Deque[T]) []T {
	if q.Len() == 0 {
		return nil
	}
	out := make([]T, q.Len())
	for i := range out {
		out[i] = q.At(i)
	}
	return out
}

// RestoreDeque replaces the deque's contents with the given elements in
// order (front first), keeping its grown storage.
func RestoreDeque[T any](q *Deque[T], items []T) {
	q.Clear()
	for _, v := range items {
		q.PushBack(v)
	}
}
