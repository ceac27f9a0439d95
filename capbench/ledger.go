package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"capred/internal/cpu"
	"capred/internal/memsys"
	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
	"capred/internal/prefetch"
	"capred/internal/server"
	"capred/internal/sim"
	"capred/internal/trace"
	"capred/internal/workload"
)

const (
	ledgerTraces = 8 // traces the seed samples from the roster
	ledgerReps   = 3 // the ledger reports each cost's median over reps
	// handlerSamples is the least number of handler calls the server
	// line times, so its p99 has ten samples beyond it.
	handlerSamples = 1000
)

// ledgerSample draws the seed's traces from the roster.
func ledgerSample(seed int64) []workload.TraceSpec {
	specs := workload.Traces()
	perm := rand.New(rand.NewSource(seed)).Perm(len(specs))
	out := make([]workload.TraceSpec, ledgerTraces)
	for i := range out {
		out[i] = specs[perm[i]]
	}
	return out
}

// runLedger measures each module alone over the seed's sample of
// traces, at the run's events per trace, and records the per-layer
// lines: the median of ledgerReps repetitions of each.
func runLedger(b *bench) error {
	specs := ledgerSample(b.seed)
	sp := b.tr.open(b.root.id, "ledger")
	defer sp.end(nil)
	reps := make([]map[string]float64, ledgerReps)
	for r := range reps {
		m, err := ledgerRep(b, specs, sp.id)
		if err != nil {
			return err
		}
		reps[r] = m
	}
	for k := range reps[0] {
		var s sample
		for _, m := range reps {
			s = append(s, m[k])
		}
		b.metrics[k] = s
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	b.notes["ledger_traces"] = names
	return serverLedger(b, specs, sp.id)
}

// measure times fn as one ledger span under the layer's pprof label.
func (b *bench) measure(parent int64, layer string, fn func() error) (time.Duration, error) {
	sp := b.tr.open(parent, "ledger."+layer)
	var d time.Duration
	var err error
	b.labelled(func() {
		t0 := time.Now()
		err = fn()
		d = time.Since(t0)
	}, "layer", layer)
	sp.end(nil)
	return d, err
}

// drain pulls every event out of src by block, as the sim drain loops
// do, and returns the count.
func drain(src trace.Source) (int64, error) {
	bs := trace.AsBlocks(src)
	blk := trace.GetBlock()
	defer trace.PutBlock(blk)
	var n int64
	for {
		k, ok := bs.NextBlock(blk, trace.BlockLen)
		n += int64(k)
		if !ok {
			return n, src.Err()
		}
	}
}

// predictorCase is one predictor configuration the ledger steps over
// each trace.
type predictorCase struct {
	key   string
	gap   int
	build func() predictor.Predictor
}

var predictorCases = []predictorCase{
	{"predictor.last", 0, func() predictor.Predictor { return predictor.NewLast(predictor.DefaultLastConfig()) }},
	{"predictor.stride", 0, func() predictor.Predictor { return predictor.NewStride(predictor.DefaultStrideConfig()) }},
	{"predictor.cap", 0, func() predictor.Predictor { return predictor.NewCAP(predictor.DefaultCAPConfig()) }},
	{"predictor.hybrid", 0, func() predictor.Predictor { return predictor.NewHybrid(predictor.DefaultHybridConfig()) }},
	{"hybrid_gap8", 8, func() predictor.Predictor {
		c := predictor.DefaultHybridConfig()
		c.Speculative = true
		return predictor.NewHybrid(c)
	}},
	{"tournament.full", 0, func() predictor.Predictor { return tournament.NewFull(false) }},
	{"tournament.full_gap8", 8, func() predictor.Predictor { return tournament.NewFull(true) }},
}

// predictorCost is one configuration's summed cost over the sample.
type predictorCost struct {
	ns     time.Duration
	allocs uint64
	c      metrics.Counters
}

// runPredictor steps a fresh predictor over src with sim.RunTrace and
// returns its time, heap allocations and counters.
func runPredictor(pc predictorCase, src trace.Source) (predictorCost, error) {
	p := pc.build()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	c, err := sim.RunTrace(src, p, pc.gap)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return predictorCost{ns: d, allocs: m1.Mallocs - m0.Mallocs, c: c}, err
}

// ledgerRep is one pass of the ledger over the sample.
func ledgerRep(b *bench, specs []workload.TraceSpec, parent int64) (map[string]float64, error) {
	var (
		events                               int64
		gen, cold, warm, decode, cpuNo, cpuH time.Duration
		memNS, rptNS                         time.Duration
		resident, instr, cycles              int64
		accesses, l1Hits, l1Total, loads     int64
		pred                                 = make(map[string]*predictorCost)
	)
	const warmDrains = 16
	for _, spec := range specs {
		open := func() trace.Source { return trace.NewLimit(spec.Open(), b.events) }
		var n int64
		d, err := b.measure(parent, "workload", func() (err error) { n, err = drain(open()); return err })
		if err != nil {
			return nil, fmt.Errorf("%s: generating: %w", spec.Name, err)
		}
		gen += d
		events += n

		cache := trace.NewReplayCache(0)
		key := cacheKey(spec.Name, b.events)
		cursor := func() trace.Source { return cache.Open(key, open) }
		d, _ = b.measure(parent, "trace", func() error { cursor(); return nil })
		cold += d
		st := cache.Stats()
		if st.Entries != 1 {
			return nil, fmt.Errorf("%s: the replay cache did not retain the stream", spec.Name)
		}
		resident += st.Bytes
		d, err = b.measure(parent, "trace", func() error {
			for i := 0; i < warmDrains; i++ {
				if _, err := drain(cursor()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		warm += d / warmDrains

		var enc bytes.Buffer
		w := trace.NewWriter(&enc)
		if _, err := trace.Copy(w, cursor()); err != nil {
			return nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		d, err = b.measure(parent, "trace", func() error { return decodeAll(enc.Bytes(), n) })
		if err != nil {
			return nil, fmt.Errorf("%s: decoding: %w", spec.Name, err)
		}
		decode += d

		for _, pc := range predictorCases {
			var cost predictorCost
			_, err := b.measure(parent, "predictor", func() (err error) { cost, err = runPredictor(pc, cursor()); return err })
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", spec.Name, pc.key, err)
			}
			acc := pred[pc.key]
			if acc == nil {
				acc = &predictorCost{}
				pred[pc.key] = acc
			}
			acc.ns += cost.ns
			acc.allocs += cost.allocs
			acc.c.Merge(cost.c)
		}

		var res cpu.Result
		d, err = b.measure(parent, "cpu", func() error { res = cpu.Run(cursor(), nil, 0, cpu.DefaultConfig()); return res.Err })
		if err != nil {
			return nil, err
		}
		cpuNo += d
		d, err = b.measure(parent, "cpu", func() error {
			res = cpu.Run(cursor(), predictor.NewHybrid(predictor.DefaultHybridConfig()), 0, cpu.DefaultConfig())
			return res.Err
		})
		if err != nil {
			return nil, err
		}
		cpuH += d
		instr += res.Instructions
		cycles += res.Cycles

		mem, err := memRefs(cursor())
		if err != nil {
			return nil, err
		}
		h := memsys.NewHierarchy(memsys.DefaultHierarchyConfig())
		d, _ = b.measure(parent, "memsys", func() error {
			for i, a := range mem.addr {
				h.Access(a, mem.write[i])
			}
			return nil
		})
		memNS += d
		accesses += int64(len(mem.addr))
		l1Hits += h.L1.Hits
		l1Total += h.L1.Hits + h.L1.Misses
		rpt := prefetch.NewRPT(prefetch.DefaultRPTConfig())
		d, _ = b.measure(parent, "prefetch", func() error {
			for i, a := range mem.loadAddr {
				rpt.Observe(mem.loadIP[i], a)
			}
			return nil
		})
		rptNS += d
		loads += int64(len(mem.loadAddr))
	}
	perEvent := func(d time.Duration) float64 { return ratio(float64(d), float64(events)) }
	m := map[string]float64{
		"workload.gen_ns_per_event":      perEvent(gen),
		"trace.materialise_ns_per_event": perEvent(cold),
		"trace.warm_ns_per_event":        perEvent(warm),
		"trace.decode_ns_per_event":      perEvent(decode),
		"trace.resident_bytes_per_event": ratio(float64(resident), float64(events)),
		"cpu.run_nopred_ns_per_event":    perEvent(cpuNo),
		"cpu.run_hybrid_ns_per_event":    perEvent(cpuH),
		"cpu.ipc":                        ratio(float64(instr), float64(cycles)),
		"memsys.access_ns":               ratio(float64(memNS), float64(accesses)),
		"memsys.l1_hit_rate":             ratio(float64(l1Hits), float64(l1Total)),
		"prefetch.rpt_ns_per_load":       ratio(float64(rptNS), float64(loads)),
	}
	perLoad := func(key string) float64 { return ratio(float64(pred[key].ns), float64(pred[key].c.Loads)) }
	for _, key := range []string{"predictor.last", "predictor.stride", "predictor.cap", "predictor.hybrid"} {
		m[key+".ns_per_load"] = perLoad(key)
		m[key+".allocs_per_load"] = ratio(float64(pred[key].allocs), float64(pred[key].c.Loads))
	}
	hy := pred["predictor.hybrid"].c
	m["predictor.hybrid.correct_spec_frac"] = ratio(float64(hy.SpecCorrect), float64(hy.Loads))
	m["pipeline.gap8_ns_per_load"] = perLoad("hybrid_gap8") - perLoad("predictor.hybrid")
	m["tournament.full.ns_per_load"] = perLoad("tournament.full")
	m["tournament.full_gap8.ns_per_load"] = perLoad("tournament.full_gap8")
	// Throughput ratio, tournament over hybrid, as BENCH_sweep.json
	// defines predict.tournament_vs_hybrid.
	m["tournament.vs_hybrid"] = ratio(float64(pred["predictor.hybrid"].ns), float64(pred["tournament.full"].ns))
	return m, nil
}

// decodeAll feeds an encoded stream to a StreamDecoder in 64 KiB
// chunks, as capserve ingests request bodies, and checks the count.
func decodeAll(data []byte, want int64) error {
	const chunk = 64 << 10
	dec := trace.NewStreamDecoder()
	for len(data) > 0 {
		k := min(chunk, len(data))
		if err := dec.FeedBlocks(data[:k], func(*trace.Block) {}); err != nil {
			return err
		}
		data = data[k:]
	}
	if err := dec.Close(); err != nil {
		return err
	}
	if dec.Events() != want {
		return fmt.Errorf("decoded %d of %d events", dec.Events(), want)
	}
	return nil
}

// memStream is a trace's data references: every load and store for the
// cache hierarchy, and the loads with their IPs for the prefetcher.
type memStream struct {
	addr             []uint32
	write            []bool
	loadIP, loadAddr []uint32
}

func memRefs(src trace.Source) (*memStream, error) {
	m := &memStream{}
	bs := trace.AsBlocks(src)
	blk := trace.GetBlock()
	defer trace.PutBlock(blk)
	for {
		n, ok := bs.NextBlock(blk, trace.BlockLen)
		for i := 0; i < n; i++ {
			switch blk.Kind(i) {
			case trace.KindLoad:
				m.addr = append(m.addr, blk.Addr[i])
				m.write = append(m.write, false)
				m.loadIP = append(m.loadIP, blk.IP[i])
				m.loadAddr = append(m.loadAddr, blk.Addr[i])
			case trace.KindStore:
				m.addr = append(m.addr, blk.Addr[i])
				m.write = append(m.write, true)
			}
		}
		if !ok {
			return m, src.Err()
		}
	}
}

// serverLedger times capserve's handler alone, called in process with
// no network: session opens and batch ingests over the sample's
// traces, hybrid and tournament in turn.
func serverLedger(b *bench, specs []workload.TraceSpec, parent int64) error {
	streams := make([]*stream, len(specs))
	for i, spec := range specs {
		st, err := encodeBatches(spec, maxBatches, batchEvents)
		if err != nil {
			return err
		}
		streams[i] = st
	}
	srv := server.New(server.DefaultConfig())
	h := srv.Handler()
	var handler, opens []float64
	_, err := b.measure(parent, "server", func() error {
		for n := 0; len(handler) < handlerSamples; n++ {
			if n > handlerSamples {
				return fmt.Errorf("server ledger: %d sessions gave %d batch replies", n, len(handler))
			}
			kind := servePredictors[n/len(specs)%len(servePredictors)]
			body, _ := json.Marshal(map[string]any{"predictor": kind}) // a map of strings always marshals
			t0 := time.Now()
			rec := serveDirect(h, "POST", "/v1/sessions", body)
			opens = append(opens, float64(time.Since(t0))/1e3)
			var sess struct {
				ID string `json:"id"`
			}
			if err := replyOK(b, rec, &sess); err != nil {
				continue
			}
			st := streams[n%len(specs)]
			for i := range st.marks {
				t0 := time.Now()
				rec := serveDirect(h, "POST", "/v1/sessions/"+sess.ID+"/events", st.batch(i))
				handler = append(handler, float64(time.Since(t0))/1e3)
				if replyOK(b, rec, nil) != nil {
					break
				}
			}
			_ = replyOK(b, serveDirect(h, "DELETE", "/v1/sessions/"+sess.ID, nil), nil) // counted and reported by replyOK
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	sort.Float64s(handler)
	sort.Float64s(opens)
	b.metrics["server.handler_p50_us"] = sample{percentile(handler, 0.50)}
	b.metrics["server.handler_p99_us"] = sample{percentile(handler, 0.99)}
	b.metrics["server.open_p50_us"] = sample{percentile(opens, 0.50)}
	return nil
}

func serveDirect(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// replyOK counts one request and fails the run on a non-2xx reply.
func replyOK(b *bench, rec *httptest.ResponseRecorder, out any) error {
	b.attempted.Add(1)
	var err error
	if rec.Code/100 != 2 {
		err = fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	} else if out != nil {
		err = json.Unmarshal(rec.Body.Bytes(), out)
	}
	if err != nil {
		b.fail("server ledger: %v", err)
	}
	return err
}
