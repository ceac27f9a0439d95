package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
	"capred/internal/server"
	"capred/internal/sim"
	"capred/internal/trace"
	"capred/internal/workload"
)

const (
	batchEvents = 2000 // events per POSTed batch, capload's default
	maxBatches  = 5    // a session lasts 1..maxBatches batches
	openUsers   = 16   // open-loop users; each has at most one session open
	// refRate is the fixed offered load, in batches/s, at which
	// op_p50_ms is measured.
	refRate = 500.0
	// serveSetupReps set-ups make up setup_s (their median). One takes
	// a few milliseconds, and on a shared host a run of them can land
	// in a slow spell, so they span half a second, as the sweeps'
	// roster materialisations span one.
	serveSetupReps = 101
	// serveWarmSetups set-ups run first and are not measured. At process
	// start the first ten or so take up to twice as long while the
	// processor and heap warm up; the sweeps' set-up follows seconds of
	// golden checks and needs none.
	serveWarmSetups = 10
)

// serveTraces is capload's default trace rotation; servePredictors are
// split 50/50 over sessions.
var (
	serveTraces     = []string{"INT_gcc", "INT_xli", "TPC_t23", "MM_mpg"}
	servePredictors = []string{"hybrid", "tournament"}
)

// stream is one trace pre-encoded as a v3 byte stream, with the byte
// offset at the end of each batch.
type stream struct {
	data  []byte
	marks []int
}

func (s *stream) batch(i int) []byte {
	start := 0
	if i > 0 {
		start = s.marks[i-1]
	}
	return s.data[start:s.marks[i]]
}

// encodeBatches renders batches*perBatch events of spec as one stream.
func encodeBatches(spec workload.TraceSpec, batches, perBatch int) (*stream, error) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	src := trace.NewLimit(spec.Open(), int64(batches*perBatch))
	st := &stream{}
	for n := 1; ; n++ {
		ev, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Emit(ev); err != nil {
			return nil, err
		}
		if n%perBatch == 0 {
			if err := w.Flush(); err != nil {
				return nil, err
			}
			st.marks = append(st.marks, buf.Len())
		}
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	if len(st.marks) != batches {
		return nil, fmt.Errorf("%s: %d of %d batches", spec.Name, len(st.marks), batches)
	}
	st.data = buf.Bytes()
	return st, nil
}

// serveEnv is one in-process capserve on a loopback listener, with the
// pre-encoded streams its sessions post.
type serveEnv struct {
	srv     *server.Server
	hs      *http.Server
	base    string
	done    chan error
	tracing atomic.Bool // the handler middleware records spans while set
	streams map[string]*stream
}

// startServe is the serving set-up. It pre-encodes the streams, then
// builds the server with its production defaults and starts it
// listening.
func startServe(b *bench) (*serveEnv, error) {
	env := &serveEnv{
		done:    make(chan error, 1),
		streams: make(map[string]*stream, len(serveTraces)),
	}
	for _, name := range serveTraces {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown trace %q", name)
		}
		st, err := encodeBatches(spec, maxBatches, batchEvents)
		if err != nil {
			return nil, err
		}
		env.streams[name] = st
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.srv = server.New(server.DefaultConfig())
	h := env.srv.Handler()
	if b.tr != nil {
		h = b.tr.middleware(h, &env.tracing)
	}
	env.hs = &http.Server{Handler: h}
	b.labelled(func() {
		go func() { env.done <- env.hs.Serve(ln) }()
	}, "layer", "server")
	return env, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (env *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := env.hs.Shutdown(ctx)
	if err2 := env.srv.Shutdown(ctx); err == nil {
		err = err2
	}
	if err3 := <-env.done; !errors.Is(err3, http.ErrServerClosed) && err == nil {
		err = err3
	}
	return err
}

// client is the load generator's HTTP side: at most nproc connections,
// shared by every user goroutine.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	n := runtime.NumCPU()
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}},
		base: base,
	}
}

// do issues one request, tagged with the caller's span id, and decodes
// a 2xx JSON reply into out. Any other status is an error.
func (c *client) do(method, path string, body []byte, spanID int64, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// plan is one session: which trace it streams, to which predictor, for
// how many batches.
type plan struct {
	trace     string
	predictor string
	batches   int
}

// batchRec is one answered batch: when it was due, sent and answered.
type batchRec struct {
	due, sent, done time.Time
	events          int
}

// sessionRec is one closed session's final counters, for the offline
// cross-check.
type sessionRec struct {
	plan plan
	view struct {
		Events   int64            `json:"events"`
		Counters metrics.Counters `json:"counters"`
	}
}

// phaseLog collects an open loop's records from its user goroutines.
type phaseLog struct {
	mu       sync.Mutex
	batches  []batchRec
	sessions []sessionRec
}

// runSession opens a session, posts its batches, each at its due time,
// closes it and records everything. Failed requests count against the
// run and end the session.
func runSession(b *bench, env *serveEnv, c *client, p plan, dues []time.Time, tr *tracer, parent int64, l *phaseLog) {
	st := env.streams[p.trace]
	waitUntil(dues[0])
	osp := tr.open(parent, "open")
	var sess struct {
		ID string `json:"id"`
	}
	body, _ := json.Marshal(map[string]any{"predictor": p.predictor}) // a map of strings always marshals
	b.attempted.Add(1)
	err := c.do("POST", "/v1/sessions", body, osp.id, &sess)
	osp.end(map[string]any{"predictor": p.predictor})
	if err != nil {
		b.fail("open session: %v", err)
		return
	}
	recs := make([]batchRec, 0, p.batches)
	for i := 0; i < p.batches; i++ {
		due := dues[i]
		waitUntil(due)
		bsp := tr.openAt(parent, "batch", due)
		rec := batchRec{due: due, sent: time.Now(), events: batchEvents}
		b.attempted.Add(1)
		err := c.do("POST", "/v1/sessions/"+sess.ID+"/events", st.batch(i), bsp.id, nil)
		rec.done = time.Now()
		bsp.endAt(rec.done, map[string]any{"session": sess.ID, "batch": i})
		if err != nil {
			b.fail("post batch: %v", err)
			break
		}
		recs = append(recs, rec)
	}
	csp := tr.open(parent, "close")
	rec := sessionRec{plan: p}
	b.attempted.Add(1)
	err = c.do("DELETE", "/v1/sessions/"+sess.ID, nil, csp.id, &rec.view)
	csp.end(nil)
	if err != nil {
		b.fail("close session: %v", err)
	}
	l.mu.Lock()
	l.batches = append(l.batches, recs...)
	if err == nil && len(recs) == p.batches {
		l.sessions = append(l.sessions, rec)
	}
	l.mu.Unlock()
}

func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// newPlan draws a session: the trace rotates per user, the predictor
// and the length come from the user's seeded stream.
func newPlan(rng *rand.Rand, user, k int) plan {
	return plan{
		trace:     serveTraces[(user+k)%len(serveTraces)],
		predictor: servePredictors[rng.Intn(len(servePredictors))],
		batches:   1 + rng.Intn(maxBatches),
	}
}

// openLoop offers refRate batches/s from openUsers independent users
// over [from, until): each user's batches are due on its own seeded Poisson
// schedule, whatever the replies do, and a session's batches go in
// order. Sessions under way at until run to their end.
func openLoop(b *bench, env *serveEnv, c *client, step int64, from, until time.Time, tr *tracer, parent int64) *phaseLog {
	l := &phaseLog{}
	var wg sync.WaitGroup
	for u := 0; u < openUsers; u++ {
		rng := rand.New(rand.NewSource(b.seed*1_000_003 + step*7919 + int64(u)))
		gap := func() time.Duration {
			return time.Duration(rng.ExpFloat64() / (refRate / openUsers) * float64(time.Second))
		}
		wg.Add(1)
		b.labelled(func() {
			go func() {
				defer wg.Done()
				next := from.Add(gap())
				for k := 0; next.Before(until); k++ {
					p := newPlan(rng, u, k)
					dues := make([]time.Time, p.batches)
					for i := range dues {
						dues[i] = next
						next = next.Add(gap())
					}
					runSession(b, env, c, p, dues, tr, parent, l)
				}
			}()
		}, "layer", "load")
	}
	wg.Wait()
	return l
}

// serveWorkload drives in-process capserve: set-up, then an open loop
// at refRate for the whole budget. A traced run instead alternates
// untraced and traced one-second open-loop steps at refRate.
func serveWorkload(b *bench) error {
	var env *serveEnv
	var setups sample
	for i := 0; i < serveWarmSetups+serveSetupReps; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return err
			}
		}
		runtime.GC() // every set-up starts from the same heap, as the sweeps' do
		sp := b.tr.open(b.root.id, "setup")
		t0 := time.Now()
		var err error
		env, err = startServe(b)
		if err != nil {
			return err
		}
		if i >= serveWarmSetups {
			setups = append(setups, time.Since(t0).Seconds())
		}
		sp.end(nil)
	}
	b.metrics["setup_s"] = setups
	c := newClient(env.base)
	var sessions []sessionRec
	if b.tr == nil {
		sessions = serveOpenLoop(b, env, c)
	} else {
		sessions = serveTraced(b, env, c)
	}
	c.hc.CloseIdleConnections()
	if err := env.stop(); err != nil {
		return err
	}
	want := make(map[plan]metrics.Counters)
	for _, s := range sessions {
		w, ok := want[s.plan]
		if !ok {
			var err error
			if w, err = offlineCounters(env.streams[s.plan.trace], s.plan); err != nil {
				return err
			}
			want[s.plan] = w
		}
		b.attempted.Add(1)
		if s.view.Counters != w || s.view.Events != int64(s.plan.batches*batchEvents) {
			b.fail("session %+v: served counters %+v over %d events, offline %+v", s.plan, s.view.Counters, s.view.Events, w)
		}
	}
	b.notes["sessions_checked"] = len(sessions)
	return nil
}

// offlineCounters runs a session plan through sim.RunTrace over the
// bytes the session posted: the counters the server must have returned.
func offlineCounters(st *stream, p plan) (metrics.Counters, error) {
	pred, err := newPredictor(p.predictor)
	if err != nil {
		return metrics.Counters{}, err
	}
	c, err := sim.RunTrace(trace.NewReader(bytes.NewReader(st.data[:st.marks[p.batches-1]])), pred, 0)
	if err != nil {
		return metrics.Counters{}, fmt.Errorf("offline %+v: %w", p, err)
	}
	return c, nil
}

// serveOpenLoop is the untraced measurement: the open loop at refRate
// for the whole budget. op_p50_ms times each batch from its due time.
// mev_per_s counts the events answered, so it sits at the offered rate
// and only falls when the server cannot keep up. The first tenth of the
// budget, at most a second, is warm-up.
func serveOpenLoop(b *bench, env *serveEnv, c *client) []sessionRec {
	t0 := time.Now()
	until := t0.Add(b.budget())
	l := openLoop(b, env, c, 0, t0, until, nil, 0)
	from := t0.Add(min(b.budget()/10, time.Second))
	var lat, late sample
	for _, r := range l.batches {
		if r.due.Before(from) {
			continue
		}
		lat = append(lat, float64(r.done.Sub(r.due))/1e6)
		late = append(late, float64(r.sent.Sub(r.due))/1e6)
	}
	b.metrics["op_p50_ms"] = lat
	b.metrics["mev_per_s"] = windowRates(l.batches, from, until)

	sort.Float64s(lat)
	sort.Float64s(late)
	b.notes["load.samples"] = len(lat)
	b.notes["load.p99_ms"] = percentile(lat, 0.99)
	b.notes["load.p999_ms"] = percentile(lat, 0.999)
	b.notes["load.gen_late_p99_ms"] = percentile(late, 0.99)
	b.notes["load.offered_batches_per_s"] = refRate
	return l.sessions
}

// windowRates splits [from, to) into half-second windows and returns
// the events answered in each, in Mev/s; the median over windows moves
// less with one stall than the mean does.
func windowRates(batches []batchRec, from, to time.Time) sample {
	const window = 500 * time.Millisecond
	rates := make(sample, max(int(to.Sub(from)/window), 1))
	for _, r := range batches {
		if i := int(r.done.Sub(from) / window); !r.done.Before(from) && i < len(rates) {
			rates[i] += float64(r.events) / window.Seconds() / 1e6
		}
	}
	return rates
}

// serveTraced alternates untraced and traced one-second steps at the
// reference rate for the rest of the budget; the traced steps give the
// serve span tree, and the two kinds' median latencies the tracing
// overhead.
func serveTraced(b *bench, env *serveEnv, c *client) []sessionRec {
	const stepDur = time.Second
	var sessions []sessionRec
	var plain, traced sample
	start := time.Now()
	for i := int64(0); i < 2 || time.Since(start) < b.budget()-b.spent; i++ {
		withSpans := i%2 == 1
		var tr *tracer
		if withSpans {
			tr = b.tr
		}
		env.tracing.Store(withSpans)
		t0 := time.Now()
		sp := tr.open(b.root.id, "serve-step")
		l := openLoop(b, env, c, i, t0, t0.Add(stepDur), tr, sp.id)
		sp.end(map[string]any{"rate": refRate})
		env.tracing.Store(false)
		var lat sample
		for _, r := range l.batches {
			lat = append(lat, float64(r.done.Sub(r.due))/1e6)
		}
		if withSpans {
			traced = append(traced, lat.summary().Median)
		} else {
			plain = append(plain, lat.summary().Median)
		}
		sessions = append(sessions, l.sessions...)
	}
	b.recordSpans(serveShape, traced, plain)
	return sessions
}

// newPredictor builds the predictor a session of that kind runs, as
// capserve builds it with no options: the paper's hybrid, or the 5-way
// tournament.
func newPredictor(kind string) (predictor.Predictor, error) {
	switch kind {
	case "hybrid":
		return predictor.NewHybrid(predictor.DefaultHybridConfig()), nil
	case "tournament":
		return tournament.NewFull(false), nil
	}
	return nil, fmt.Errorf("unknown predictor %q", kind)
}
