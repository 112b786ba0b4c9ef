// Package span records the benchmark's trace: named intervals taken
// around calls into the system's layers, each with the span that
// caused it, kept in memory and written out as JSON when a run ends.
// The spans are taken from the benchmark's own code, so the program
// under test carries no instrumentation for them.
package span

import (
	"sort"
	"time"
)

// Span is one recorded interval. Times are nanoseconds since the
// recorder was created.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans. It is not safe for concurrent use: the
// benchmark calls its layers one at a time while tracing.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// NewRecorder starts an empty trace whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span under parent (-1 for a root) and returns its ID.
func (r *Recorder) Start(name, detail string, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Detail: detail, Start: r.now(), End: -1})
	return id
}

// End closes span id and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	r.spans[id].End = r.now()
	return r.spans[id].Dur()
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Spans returns the recorded spans, indexed by ID.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTimes returns each span's self time, indexed by ID: its duration
// minus the part of its interval that the union of its children covers.
// Children may overlap one another (concurrent calls) and may run past
// their parent; only the covered part inside the parent is subtracted.
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}
