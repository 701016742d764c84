package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Times are offsets from
// the tracer's epoch; parent is an index into the tracer's span slice
// (-1 for a root); req ties together the spans of one request.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
}

// tracer keeps spans in memory for the length of a traced run. The
// traced run is single-goroutine, so the open-span stack is the
// parent chain. A nil *tracer records nothing: that is the spans-off
// pass trace.overhead_ratio is measured against.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string, req int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, req: req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// stage records a child of parent reconstructed from a duration the
// layer reports about itself (smartpsi.Result's public stage times):
// it ends at endsAt and lasted d. It returns the new span's id.
func (t *tracer) stage(name string, parent int, endsAt, d time.Duration) int {
	if t == nil {
		return -1
	}
	p := t.spans[parent]
	start := endsAt - d
	if start < p.start {
		start = p.start
	}
	t.spans = append(t.spans, span{name: name, start: start, end: endsAt, parent: parent, req: p.req})
	return len(t.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.name] += (s.end - s.start) - covered
	}
	return self
}

// writeChromeTrace renders spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps, one track: the traced run is
// sequential, so nested spans stack by containment), loadable in chrome://tracing or ui.perfetto.dev.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"span": i, "parent": s.parent, "request": s.req},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
