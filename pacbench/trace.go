package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call of pacbench into a layer. Spans of one op share
// Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a root span, which starts a new op.
func (t *tracer) begin(name string) int64 { return t.open(name, 0) }

// child opens a span under parent, in parent's op.
func (t *tracer) child(name string, parent int64) int64 { return t.open(name, parent) }

func (t *tracer) open(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes a span begin or child returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime sums the spans of one name: their count, total duration, and
// self time, which is a span's duration minus the part of it that its
// child spans cover.
type layerTime struct {
	count      int
	total, own time.Duration
}

// meanMS is the mean span duration in milliseconds.
func (lt layerTime) meanMS() float64 { return ratio(float64(lt.total)/1e6, float64(lt.count)) }

// selfMS is the mean self time per span in milliseconds.
func (lt layerTime) selfMS() float64 { return ratio(float64(lt.own)/1e6, float64(lt.count)) }

// layers aggregates the closed spans by name.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		lt := out[s.Name]
		lt.count++
		lt.total += d
		lt.own += d - covered(children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum, curStart, curEnd time.Duration
	open := false
	for _, s := range spans {
		if open && s.Start <= curEnd {
			if s.End > curEnd {
				curEnd = s.End
			}
			continue
		}
		if open {
			sum += curEnd - curStart
		}
		curStart, curEnd, open = s.Start, s.End, true
	}
	if open {
		sum += curEnd - curStart
	}
	return sum
}

// opSpans counts the spans under "op" roots: the spans the measured ops
// opened, replays and direct calls excluded.
func (t *tracer) opSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if t.spans[s.Op-1].Name == "op" {
			n++
		}
	}
	return n
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
