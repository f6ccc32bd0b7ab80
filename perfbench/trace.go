package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one traced call. IDs start at 1; Parent 0 marks a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
}

// tracer keeps spans in memory until the run ends. Allocation counts
// come from runtime.ReadMemStats, read outside each span's timed
// interval so the read's own pause is not charged to the span.
type tracer struct {
	epoch time.Time
	spans []span
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID. A nil tracer records nothing.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Req: req, Allocs: t.ms.Mallocs})
	t.spans[len(t.spans)-1].Start = time.Since(t.epoch).Nanoseconds()
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	endNs := time.Since(t.epoch).Nanoseconds()
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id-1]
	s.End = endNs
	s.Allocs = t.ms.Mallocs - s.Allocs
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close() //hanccr:allow discarderr error path; the encode error is what the caller sees
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //hanccr:allow discarderr error path; the flush error is what the caller sees
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the union of its
// children's intervals (clipped to the span), indexed like spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi] that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerStats is the per-layer summary of one span name.
type layerStats struct {
	calls  int
	selfMs float64 // summed self time
	p50Us  float64 // median self time per call
	allocs float64 // allocations per call
}

// summarize aggregates spans by name.
func summarize(spans []span) map[string]layerStats {
	self := selfTimes(spans)
	byName := make(map[string][]int)
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	out := make(map[string]layerStats, len(byName))
	for name, idx := range byName {
		var st layerStats
		durs := make([]float64, len(idx))
		var allocs uint64
		for k, i := range idx {
			st.selfMs += float64(self[i]) / 1e6
			durs[k] = float64(self[i]) / 1e3
			allocs += spans[i].Allocs
		}
		st.calls = len(idx)
		st.p50Us = median(durs)
		st.allocs = float64(allocs) / float64(len(idx))
		out[name] = st
	}
	return out
}
