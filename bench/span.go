package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: which layer function, when, under
// which enclosing span, and for which op. Times are nanoseconds since
// the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the traced and untraced ops share one code path.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns the function that closes it, plus the
// span's id for its children to name as parent.
func (r *recorder) begin(op, parent int, name string) (id int, end func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: start})
	id = len(r.spans)
	r.mu.Unlock()
	return id, func() {
		e := time.Since(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].End = e
		r.mu.Unlock()
	}
}

// add records a span whose interval is already known (a duration the
// program under test reported for one of its own stages), laid out from
// start.
func (r *recorder) add(op, parent int, name string, start, dur int64) (id int) {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: start + dur})
	return len(r.spans)
}

// now is the recorder's clock, for laying out spans passed to add.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.t0).Nanoseconds()
}

// opTrace records one op recomposed from layer calls: a root span and one
// child per step.
type opTrace struct {
	rec      *recorder
	op, root int
	last     int           // id of the span step opened last
	spanned  time.Duration // sum of the steps: what the layers cover of the op
	end      func()        // closes the root span
}

func (r *recorder) traceOp(op int) *opTrace {
	t := &opTrace{rec: r, op: op}
	t.root, t.end = r.begin(op, 0, "op")
	return t
}

// step runs one layer call under a span named after it.
func (t *opTrace) step(name string, f func() error) error {
	id, end := t.rec.begin(t.op, t.root, name)
	t0 := time.Now()
	err := f()
	t.spanned += time.Since(t0)
	end()
	t.last = id
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// are counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// write dumps the spans as JSON (the trace file of one workload).
func (r *recorder) write(path string) error {
	r.mu.Lock()
	data, err := json.MarshalIndent(r.spans, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// durations lists, in seconds, every span recorded under a name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}
