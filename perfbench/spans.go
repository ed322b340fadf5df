package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and
// End are nanoseconds since the tracer started; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer is the untraced mode: every method is a no-op, so workload
// code calls it unconditionally.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	all  []span
}

func newTracer() *tracer { return &tracer{t0: clockNow()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  int64
}

// begin opens a span named name under parent (0 for a root).
func (t *tracer) begin(parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.next.Add(1), parent: parent, name: name, start: int64(since(t.t0))}
}

// end closes the span and returns its duration.
func (s spanRef) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := int64(since(s.t.t0))
	s.t.mu.Lock()
	s.t.all = append(s.t.all, span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: now})
	s.t.mu.Unlock()
	return time.Duration(now - s.start)
}

// spans returns a copy of the closed spans.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

// spanTotal is the per-name aggregate of closed spans.
type spanTotal struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is the summed span time not covered by any child span.
	SelfS float64 `json:"self_s"`
}

// summarize aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it,
// so overlapping children (parallel workers) are not double-counted.
func summarize(spans []span) map[string]spanTotal {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		count       int
		total, self int64
	}
	sums := map[string]acc{}
	for _, s := range spans {
		dur := s.End - s.Start
		a := sums[s.Name]
		a.count++
		a.total += dur
		a.self += dur - covered(s, children[s.ID])
		sums[s.Name] = a
	}
	out := make(map[string]spanTotal, len(sums))
	for name, a := range sums {
		out[name] = spanTotal{Count: a.count, TotalS: float64(a.total) / 1e9, SelfS: float64(a.self) / 1e9}
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every span plus the per-name summary as one JSON
// document.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(map[string]any{"summary": summarize(spans), "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
