package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the traced run makes into a layer's public API.
// Spans of one request share req; parent is the index of the enclosing
// span, or -1 at the root.
type span struct {
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, after measuring. A nil *tracer records nothing, so untraced code
// paths share the traced ones at the cost of one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and returns its index for close and for children.
func (t *tracer) open(req uint64, parent int, name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Parent: parent, Name: name, Start: start})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// close ends span i.
func (t *tracer) close(i int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// rename relabels span i, for calls whose kind is known only after they
// return (a zoo poll that turned out to download a blob).
func (t *tracer) rename(i int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].Name = name
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	// total sums span durations; self sums each span's duration minus the
	// part of its interval its children cover. Both in nanoseconds.
	total, self int64
	// durs holds every span's duration, for percentiles.
	durs []float64
}

// selfTimes derives per-name counts, total and self time from spans. A
// span's self time is its duration minus the union of its children's
// intervals, clipped to the span, so overlapping or concurrent children
// are never subtracted twice.
func selfTimes(spans []span) map[string]*spanStat {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.self += d - covered(s.Start, s.End, children[i])
		st.durs = append(st.durs, float64(d))
	}
	return out
}

func sortedKeys(m map[string]*spanStat) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}
