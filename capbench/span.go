package main

import (
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"capred/internal/trace"
)

// span is one timed interval of a traced run. Times are nanoseconds on
// the tracer's monotonic clock; Parent 0 marks a root.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. Spans are recorded
// from the benchmark's own code, around its calls into each layer. A
// nil *tracer records nothing, which is how untraced runs stay
// untraced.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to tracer nanoseconds.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// openSpan is a span that has started but not ended. The zero value
// (from a nil tracer) is inert.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  int64
}

// open starts a span now.
func (t *tracer) open(parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return t.openAt(parent, name, time.Now())
}

// openAt starts a span at a given instant, such as a batch's due time.
func (t *tracer) openAt(parent int64, name string, start time.Time) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.ids.Add(1), parent: parent, name: name, start: t.at(start)}
}

// end records the span as ending now.
func (s openSpan) end(attrs map[string]any) {
	if s.t != nil {
		s.endAt(time.Now(), attrs)
	}
}

func (s openSpan) endAt(tm time.Time, attrs map[string]any) {
	if s.t == nil {
		return
	}
	s.t.add(span{ID: s.id, Parent: s.parent, Name: s.name, StartNS: s.start, EndNS: s.t.at(tm), Attrs: attrs})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, in recording order.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// cellSource wraps one trace source a sim grid cell opened (through
// sim.Config.WrapSource). The cell span runs from the open to end of
// stream; its one deliver child holds the summed NextBlock time, so the
// cell's self time is the consumer's share: predictor, pipeline gap or
// timing model.
type cellSource struct {
	src     trace.Source
	bs      trace.BlockSource
	cell    openSpan
	name    string
	deliver time.Duration
	calls   int64
	events  int64
	done    bool
	onEnd   func(events int64)
}

func newCellSource(t *tracer, parent int64, name string, src trace.Source, onEnd func(int64)) *cellSource {
	return &cellSource{src: src, bs: trace.AsBlocks(src), cell: t.open(parent, "cell"), name: name, onEnd: onEnd}
}

// Next implements trace.Source. The sim drivers deliver by block; a
// per-event consumer is counted but not timed.
func (c *cellSource) Next() (trace.Event, bool) {
	ev, ok := c.src.Next()
	if ok {
		c.events++
	} else {
		c.finish()
	}
	return ev, ok
}

// Err implements trace.Source.
func (c *cellSource) Err() error { return c.src.Err() }

// NextBlock implements trace.BlockSource.
func (c *cellSource) NextBlock(b *trace.Block, max int) (int, bool) {
	t0 := time.Now()
	n, ok := c.bs.NextBlock(b, max)
	c.deliver += time.Since(t0)
	c.calls++
	c.events += int64(n)
	if !ok {
		c.finish()
	}
	return n, ok
}

func (c *cellSource) finish() {
	if c.done {
		return
	}
	c.done = true
	c.cell.end(map[string]any{"trace": c.name, "events": c.events})
	c.cell.t.add(span{
		ID: c.cell.t.ids.Add(1), Parent: c.cell.id, Name: "deliver",
		StartNS: c.cell.start, EndNS: c.cell.start + int64(c.deliver),
		Attrs: map[string]any{"calls": c.calls},
	})
	c.onEnd(c.events)
}

// spanHeader carries the client's batch span id to the server-side
// middleware, so a handler span knows the request it belongs to.
const spanHeader = "X-Capbench-Span"

// middleware wraps capserve's handler with a handler span per request
// while on is set; the request's span header names the parent.
func (t *tracer) middleware(next http.Handler, on *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent header: a root span
		sp := t.open(parent, "handler")
		next.ServeHTTP(w, r)
		sp.end(map[string]any{"method": r.Method, "path": r.URL.Path})
	})
}

// treeShape names the spans of one workload's tree that the span
// metrics read: group spans (one experiment, one serve step) hold unit
// spans (a grid cell, a batch), each with at most one child of
// interest (deliver, handler). Work spans are the ones that occupy a
// processor: cells for a grid, handlers for serving.
type treeShape struct {
	group, unit, child, work string
}

var (
	gridShape  = treeShape{group: "experiment", unit: "cell", child: "deliver", work: "cell"}
	serveShape = treeShape{group: "serve-step", unit: "batch", child: "handler", work: "handler"}
)

// spanMetrics reduces a traced run's spans to the span.* ledger lines.
// workers is the number of processors the groups had (GOMAXPROCS).
func spanMetrics(spans []span, sh treeShape, workers int) map[string]float64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	inGroup := func(s span) (span, bool) {
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if g := byID[p]; g.Name == sh.group {
				return g, true
			}
		}
		return span{}, false
	}
	var groupNS, unitNS, childNS, workNS int64
	var units []float64
	ends := make(map[int64][]int64) // group id → unit end times
	for _, s := range spans {
		if s.Name == sh.group {
			groupNS += s.dur()
		}
		g, ok := inGroup(s)
		if !ok {
			continue
		}
		if s.Name == sh.work {
			workNS += s.dur()
		}
		switch s.Name {
		case sh.unit:
			unitNS += s.dur()
			units = append(units, float64(s.dur())/1e6)
			ends[g.ID] = append(ends[g.ID], s.EndNS)
		case sh.child:
			childNS += s.dur()
		}
	}
	// Tail: processor time left idle while the last units of a group
	// finish. With greedy workers a processor idles only once no unit is
	// left to claim, so the idle time is the gap from each of the
	// workers-1 ends before the last one to the last.
	var tailNS int64
	for _, e := range ends {
		sort.Slice(e, func(i, j int) bool { return e[i] < e[j] })
		last := len(e) - 1
		for k := 1; k < workers && last-k >= 0; k++ {
			tailNS += e[last] - e[last-k]
		}
	}
	sort.Float64s(units)
	return map[string]float64{
		"span.units":             float64(len(units)),
		"span.unit_p50_ms":       percentile(units, 0.50),
		"span.unit_p99_ms":       percentile(units, 0.99),
		"span.unit_max_ms":       percentile(units, 1),
		"span.child_frac":        ratio(float64(childNS), float64(unitNS)),
		"span.unattributed_frac": 1 - ratio(float64(workNS), float64(workers)*float64(groupNS)),
		"span.tail_ms":           float64(tailNS) / 1e6,
	}
}

// recordSpans adds a traced run's results: the tracing overhead, from
// the median op of the traced and of the untraced steps, and the span
// tree's metrics, as per-layer lines where declared and as notes
// otherwise.
func (b *bench) recordSpans(sh treeShape, traced, plain sample) {
	b.metrics["bench.trace_overhead_frac"] = sample{traced.summary().Median/plain.summary().Median - 1}
	for k, v := range spanMetrics(b.tr.snapshot(), sh, runtime.GOMAXPROCS(0)) {
		if slices.ContainsFunc(layerMetrics, func(d metricDef) bool { return d.name == k }) {
			b.metrics[k] = sample{v}
		} else {
			b.notes[k] = v
		}
	}
}

// checkNesting reports the first span that lies outside its parent or
// whose self time (duration minus the union of its children) is
// negative; it returns "" for a well-formed tree.
func checkNesting(spans []span) string {
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return "span " + s.Name + " ends before it starts"
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return "span " + s.Name + " has no recorded parent"
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return "span " + s.Name + " lies outside its parent " + p.Name
		}
	}
	for id, ks := range kids {
		if byID[id].dur()-covered(ks) < 0 {
			return "span " + byID[id].Name + " has negative self time"
		}
	}
	return ""
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].StartNS < iv[j].StartNS })
	var total, curStart, curEnd int64
	for i, s := range iv {
		if i == 0 || s.StartNS > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.StartNS, s.EndNS
		} else if s.EndNS > curEnd {
			curEnd = s.EndNS
		}
	}
	return total + curEnd - curStart
}
