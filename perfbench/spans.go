package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"realroots/internal/metrics"
)

// A span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Name is "<layer>.<operation>";
// spans of one input share Req.
type span struct {
	ID, Parent int // Parent is -1 for a top-level span
	Name       string
	Req        int
	Start, End time.Duration // offsets from the recorder's epoch
	// Allocs counts heap objects allocated inside the span; only leaf
	// spans opened with allocs=true measure it.
	Allocs uint64
	// C is the span's own arithmetic sink: the call it wraps records
	// into it through a metrics.Ctx.
	C *metrics.Counters

	mallocs0 uint64
	allocs   bool
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// layer returns the part of the name before the first dot.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// A recorder keeps spans in memory on one goroutine; nothing is written
// until the run ends.
type recorder struct {
	epoch time.Time
	now   func() time.Time
	spans []*span
	open  []int
	ms    runtime.MemStats
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), now: time.Now}
}

// begin opens a span under the innermost open span. With allocs set it
// reads the allocation counter before taking the start time, so the
// (stop-the-world) read stays outside the span.
func (r *recorder) begin(name string, req int, allocs bool) *span {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	var mallocs0 uint64
	if allocs {
		mallocs0 = r.readMallocs(req)
	}
	s := &span{ID: len(r.spans), Parent: parent, Name: name, Req: req, C: &metrics.Counters{}, allocs: allocs, mallocs0: mallocs0}
	s.Start = r.now().Sub(r.epoch)
	r.spans = append(r.spans, s)
	r.open = append(r.open, s.ID)
	return s
}

// readMallocs reads the heap allocation count. The read stops the
// world, so it is recorded as a "bench.memstats" span of its own:
// otherwise its cost would land in the enclosing layer's self time.
func (r *recorder) readMallocs(req int) uint64 {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	s := &span{ID: len(r.spans), Parent: parent, Name: "bench.memstats", Req: req, Start: r.now().Sub(r.epoch)}
	runtime.ReadMemStats(&r.ms)
	s.End = r.now().Sub(r.epoch)
	r.spans = append(r.spans, s)
	return r.ms.Mallocs
}

// end closes the innermost open span.
func (r *recorder) end() {
	s := r.spans[r.open[len(r.open)-1]]
	r.open = r.open[:len(r.open)-1]
	s.End = r.now().Sub(r.epoch)
	if s.allocs {
		s.Allocs = r.readMallocs(s.Req) - s.mallocs0
	}
}

// ctx returns the metrics context that records into span s.
func (s *span) ctx(base metrics.Ctx) metrics.Ctx {
	base.C = s.C
	return base
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (children may overlap; covered time counts
// once and is clipped to the parent).
func selfTimes(spans []*span) []time.Duration {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case v.lo <= cur.hi:
				if v.hi > cur.hi {
					cur.hi = v.hi
				}
			default:
				covered += cur.hi - cur.lo
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.hi - cur.lo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []*span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.layer()] += self[i]
	}
	return out
}

// writeSelfTable prints self time per layer, largest first, with each
// layer's share of the top-level spans' total.
func writeSelfTable(w io.Writer, spans []*span) {
	var total time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			total += s.dur()
		}
	}
	per := layerSelf(spans)
	layers := make([]string, 0, len(per))
	for l := range per {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return per[layers[a]] > per[layers[b]] })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tself ms\tshare\t")
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\t\n", l, ms(per[l]), 100*ratio(float64(per[l]), float64(total)))
	}
	tw.Flush()
}

// chromeEvent is one record of the Chrome trace-event format that
// cmd/validatetrace accepts.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON: one thread,
// one complete event per span carrying its id, parent and request id.
func writeChrome(w io.Writer, spans []*span) error {
	events := []chromeEvent{{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "replay"}}}
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.layer(),
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: map[string]any{"span": s.ID, "parent": s.Parent, "requestId": fmt.Sprintf("in-%d", s.Req), "allocs": s.Allocs},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
