// Package cpu is a trace-driven out-of-order timing model with the
// headline parameters of the paper's performance simulator (§4.1): 8-wide
// fetch, a 128-entry instruction window, 10 functional units, 4 data-cache
// ports, a g-share branch predictor, the memsys two-level data-cache
// hierarchy, and optional load-address prediction with selective recovery.
//
// The model computes, for every instruction, the cycle at which it
// fetches, issues (dependences + structural resources), completes and
// retires. It is not cycle-accurate against any real machine — the paper's
// own caveat applies ("actual performance benefits are highly dependent on
// the implementation") — but it reproduces the terms that address
// prediction changes: load-to-use latency on dependence chains, finite
// window/width, and misprediction recovery.
package cpu

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"capred/internal/memsys"
	"capred/internal/pipeline"
	"capred/internal/predictor"
	"capred/internal/prefetch"
	"capred/internal/trace"
)

// Config parameterises the machine.
type Config struct {
	FetchWidth int // instructions fetched per cycle
	Window     int // in-flight instruction limit (ROB size)
	FUs        int // functional units accepting one op per cycle each
	CachePorts int // data-cache ports per cycle
	FrontDepth int // front-end stages between fetch and dispatch

	BranchFlushPenalty int // extra cycles after a mispredicted branch resolves
	AddrMispredPenalty int // selective-recovery cost of a wrong speculative access
	// LoadPipeExtra is the scheduling + address-generation pipeline a
	// normal load pays before its cache access starts; a correct address
	// prediction moves the whole access into the front end (§1: "remaining
	// activities, including the cache access, can be processed
	// speculatively early in the pipeline").
	LoadPipeExtra int

	BranchTableBits int // g-share table size (2^bits counters)
	BranchHistBits  int

	Hierarchy memsys.HierarchyConfig

	// Prefetcher, when non-nil, observes every load and warms the cache
	// hierarchy with its proposals (prefetch traffic is modelled as free
	// background bandwidth; only its cache-state effect is simulated).
	Prefetcher prefetch.Prefetcher

	// Ctx, when non-nil, cancels the run at the next event boundary; the
	// partial Result then carries the context's error in Err.
	Ctx context.Context
}

// DefaultConfig mirrors §4.1.
func DefaultConfig() Config {
	return Config{
		FetchWidth:         8,
		Window:             128,
		FUs:                10,
		CachePorts:         4,
		FrontDepth:         8,
		BranchFlushPenalty: 9,
		AddrMispredPenalty: 4,
		LoadPipeExtra:      8,
		BranchTableBits:    14,
		BranchHistBits:     12,
		Hierarchy:          memsys.DefaultHierarchyConfig(),
	}
}

// Result reports the timing outcome of one run.
type Result struct {
	Instructions int64
	Cycles       int64

	// Err is non-nil when the trace source failed (truncation, decode
	// error) or the run was cancelled: the cycle counts then cover only
	// the prefix simulated before the failure.
	Err error

	Loads        int64
	SpecAccesses int64
	CorrectSpec  int64
	MispredSpec  int64

	Branches       int64
	BranchMispreds int64

	L1HitRate float64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// ringI64 is a fixed-size ring of int64 indexed by a monotonically
// increasing sequence number; entries older than the capacity are
// overwritten, which is safe because consumers only look back a bounded
// distance (the window size or dependency horizon).
type ringI64 struct {
	buf  []int64
	mask int64
}

func newRing(capacity int) *ringI64 {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ringI64{buf: make([]int64, n), mask: int64(n - 1)}
}

func (r *ringI64) get(i int64) int64 {
	if i < 0 {
		return 0
	}
	return r.buf[i&r.mask]
}

func (r *ringI64) set(i int64, v int64) { r.buf[i&r.mask] = v }

func (r *ringI64) reset() { clear(r.buf) }

// resource tracks per-cycle usage of a structural resource with a ring of
// counters. Cells are zeroed the first time the simulation's cycle
// frontier passes them; the ring is sized well beyond the maximum
// look-back (window size + worst-case memory latency), so a reservation
// never reads a cell that has not been cleared for its cycle.
type resource struct {
	used    []int32
	limit   int32
	mask    int64
	maxSeen int64
}

func newResource(limit, span int) *resource {
	n := 1
	for n < span {
		n <<= 1
	}
	return &resource{used: make([]int32, n), limit: int32(limit), mask: int64(n - 1), maxSeen: -1}
}

func (r *resource) reset() {
	clear(r.used)
	r.maxSeen = -1
}

// reserve finds the first cycle ≥ from with a free slot and claims it.
func (r *resource) reserve(from int64) int64 {
	c := from
	for {
		if c > r.maxSeen {
			for i := r.maxSeen + 1; i <= c; i++ {
				r.used[i&r.mask] = 0
			}
			r.maxSeen = c
		}
		if r.used[c&r.mask] < r.limit {
			r.used[c&r.mask]++
			return c
		}
		c++
	}
}

// tournament is the §4.1 "hybrid branch predictor": a g-share global
// component, a two-level local-history component, and a per-branch
// chooser. The local component matters here because the out-of-order mix
// interleaves many independent loops, which scrambles global history.
type tournament struct {
	gtab  []uint8
	hist  uint32
	gmask uint32
	hmask uint32

	lhist []uint16
	lpht  []uint8
	lmask uint32

	choose []uint8
}

func newTournament(tableBits, histBits int) *tournament {
	return &tournament{
		gtab:   make([]uint8, 1<<uint(tableBits)),
		gmask:  uint32(1)<<uint(tableBits) - 1,
		hmask:  uint32(1)<<uint(histBits) - 1,
		lhist:  make([]uint16, 2048),
		lpht:   make([]uint8, 4096),
		lmask:  4095,
		choose: make([]uint8, 4096),
	}
}

func (t *tournament) reset() {
	clear(t.gtab)
	clear(t.lhist)
	clear(t.lpht)
	clear(t.choose)
	t.hist = 0
}

func (t *tournament) gIdx(ip uint32) uint32 { return (ip>>2 ^ t.hist&t.hmask) & t.gmask }

func (t *tournament) lIdx(ip uint32) (int, uint32) {
	li := int(ip >> 2 & 2047)
	return li, uint32(t.lhist[li]) & t.lmask
}

func (t *tournament) predict(ip uint32) bool {
	g := t.gtab[t.gIdx(ip)] >= 2
	_, lp := t.lIdx(ip)
	l := t.lpht[lp] >= 2
	if t.choose[ip>>2&4095] >= 2 {
		return g
	}
	return l
}

func (t *tournament) update(ip uint32, taken bool) {
	gi := t.gIdx(ip)
	li, lp := t.lIdx(ip)
	g := t.gtab[gi] >= 2
	l := t.lpht[lp] >= 2

	ch := &t.choose[ip>>2&4095]
	if g != l {
		if g == taken {
			if *ch < 3 {
				*ch++
			}
		} else if *ch > 0 {
			*ch--
		}
	}
	bump := func(e *uint8) {
		if taken {
			if *e < 3 {
				*e++
			}
		} else if *e > 0 {
			*e--
		}
	}
	bump(&t.gtab[gi])
	bump(&t.lpht[lp])
	t.lhist[li] = t.lhist[li]<<1 | uint16(b2u(taken))
	t.hist = t.hist<<1 | b2u(taken)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// src1Mask and src2Mask gate the readiness check's operand reads on the
// event kind without a branch: a kind that does not carry the column
// maps to zero, so its stale cell reads as "no dependency". They are
// indexed by kind&7, which keeps every kind byte in range.
var (
	src1Mask = [8]uint32{trace.KindALU: ^uint32(0), trace.KindLoad: ^uint32(0), trace.KindStore: ^uint32(0), trace.KindBranch: ^uint32(0)}
	src2Mask = [8]uint32{trace.KindALU: ^uint32(0), trace.KindLoad: ^uint32(0), trace.KindStore: ^uint32(0)}
)

// Machine is a reusable timing model: the cache hierarchy, the branch
// predictor, the completion and retirement rings and the structural
// resources of one simulated processor, plus the stream-determined
// columns of the trace it times (see Shard). Each run clears the tables
// it uses in place, so timing many traces on one Machine allocates its
// tables once and grows its columns only past the longest trace so far.
// The zero Machine is ready to use. A Machine runs one trace at a time.
type Machine struct {
	shape    shape
	hier     *memsys.Hierarchy
	bp       *tournament
	complete *ringI64 // per-seq completion cycles
	retire   *ringI64
	fus      *resource
	ports    *resource

	ref   streamColumns
	mems  []memColumns  // one per (shape, prefetcher) of the shard's runs
	preds []predColumns // one per (spec, gap) of the shard's runs
}

// shape is what of a Config the machine's tables are sized from.
type shape struct {
	hier                            memsys.HierarchyConfig
	branchTableBits, branchHistBits int
	window, fus, ports              int
}

// reset readies the machine's tables for a run under cfg: it builds
// them on first use or when cfg sizes them differently, and otherwise
// clears the schedule's rings and resources. The hierarchy and the
// branch predictor are cleared by the run that computes with them.
func (m *Machine) reset(cfg Config) {
	s := shape{cfg.Hierarchy, cfg.BranchTableBits, cfg.BranchHistBits, cfg.Window, cfg.FUs, cfg.CachePorts}
	if m.hier == nil || m.shape != s {
		m.shape = s
		m.hier = memsys.NewHierarchy(cfg.Hierarchy)
		m.bp = newTournament(cfg.BranchTableBits, cfg.BranchHistBits)
		m.complete = newRing(1 << 12)
		m.retire = newRing(cfg.Window * 2)
		m.fus = newResource(cfg.FUs, 1<<12)
		m.ports = newResource(cfg.CachePorts, 1<<12)
		return
	}
	m.complete.reset()
	m.retire.reset()
	m.fus.reset()
	m.ports.reset()
}

// ErrDiverged fails a run whose stream differs from the one its
// shard's stored columns were computed from.
var ErrDiverged = errors.New("stream diverges from the shard's stored outcomes")

// streamColumns are what a shard's later runs check their streams
// against: the event count and each memory op's address, from the
// shard's first clean run.
type streamColumns struct {
	ok     bool
	events int64
	addr   []uint32
}

// memColumns hold, for each memory op, the level that served it with
// prefetches applied, and for each branch whether the branch predictor
// missed it, under the machine's tables of shape and prefetcher pf.
type memColumns struct {
	ok      bool // a clean run filled them
	shape   shape
	pf      prefetch.Prefetcher
	level   []memsys.Level
	mispred []bool
}

// predColumns hold each load's outcome under spec's predictor at gap.
type predColumns struct {
	ok   bool // a clean run filled them
	spec predictor.Spec
	gap  int
	out  []outcome
}

// outcome is what the address predictor did for one load.
type outcome uint8

const (
	noSpec    outcome = iota // no speculative access
	wrongSpec                // a speculative access to the wrong address
	rightSpec                // a speculative access to the right address
)

// memFor returns the columns a clean run of the shard stored for shape
// s under prefetcher pf, and true; otherwise columns cleared for the run
// to fill, with the buffers an earlier shard left in their place.
func (m *Machine) memFor(s shape, pf prefetch.Prefetcher) (*memColumns, bool) {
	i := slices.IndexFunc(m.mems, func(c memColumns) bool { return c.shape == s && c.pf == pf })
	if i < 0 {
		i, m.mems = len(m.mems), grow(m.mems, 1)
	} else if m.mems[i].ok {
		return &m.mems[i], true
	}
	c := &m.mems[i]
	*c = memColumns{shape: s, pf: pf, level: c.level[:0], mispred: c.mispred[:0]}
	return c, false
}

// predFor is memFor for the outcomes of spec's predictor at gap.
func (m *Machine) predFor(spec predictor.Spec, gap int) (*predColumns, bool) {
	i := slices.IndexFunc(m.preds, func(c predColumns) bool { return c.spec == spec && c.gap == gap })
	if i < 0 {
		i, m.preds = len(m.preds), grow(m.preds, 1)
	} else if m.preds[i].ok {
		return &m.preds[i], true
	}
	c := &m.preds[i]
	*c = predColumns{spec: spec, gap: gap, out: c.out[:0]}
	return c, false
}

// Shard times one trace on a Machine under several configurations.
// What of a run depends on the event stream alone — the level that
// serves each memory op, with prefetches applied, each branch's
// verdict, and each load's prediction outcome — the run computes into
// columns the Machine keeps for the whole trace, one block at a time
// before it schedules that block. The shard keys memory columns by the
// run's machine shape and Config.Prefetcher instance, and prediction
// columns by the run's predictor.Spec and gap. A later run under a key
// a clean run stored schedules from its columns instead of computing
// them again, so runs under one Prefetcher must each start it in the
// same state. Every run still walks its own stream, since the schedule
// reads its kinds, operands and latencies, and checks it against the
// stored columns: a different event count or memory-op address fails
// the run with ErrDiverged.
type Shard struct {
	m     *Machine
	build func(predictor.Spec) predictor.Predictor
}

// Shard starts timing a new trace on m: it forgets every column stored
// for the last one. build makes the predictor of a spec whose outcomes
// a run computes; nil calls the spec's New.
func (m *Machine) Shard(build func(predictor.Spec) predictor.Predictor) Shard {
	m.ref.ok = false
	m.mems, m.preds = m.mems[:0], m.preds[:0]
	if build == nil {
		build = predictor.Spec.New
	}
	return Shard{m, build}
}

// instance is the Spec of a predictor that already exists: New returns
// it. It keys only the runs of a fresh shard, which store nothing
// another run reads.
type instance struct{ p predictor.Predictor }

func (i instance) New() predictor.Predictor { return i.p }

// Run simulates the trace on a fresh machine: new(Machine).Run.
func Run(src trace.Source, pred predictor.Predictor, gapDepth int, cfg Config) Result {
	return new(Machine).Run(src, pred, gapDepth, cfg)
}

// Run simulates the trace on the configured machine. pred may be nil (no
// address prediction — the paper's baseline) or any Predictor; gapDepth
// defers prediction verification by that many dynamic loads (§5), and
// depth 0 is the immediate update. The machine starts from the state
// of a fresh one whatever it ran before.
func (m *Machine) Run(src trace.Source, pred predictor.Predictor, gapDepth int, cfg Config) Result {
	var spec predictor.Spec
	if pred != nil {
		spec = instance{pred}
	}
	return m.Shard(nil).Run(src, spec, gapDepth, cfg)
}

// outcomes is one run's view of the stream-determined columns: the
// ones it reads and the ones it computes, one block at a time.
type outcomes struct {
	ref  *streamColumns
	mem  *memColumns
	pred *predColumns // nil without an address predictor

	check bool // the stream is checked against ref, else recorded into it

	// What computes the columns the run fills: hier and bp are nil
	// when mem is stored, gap when pred is stored or absent.
	hier *memsys.Hierarchy
	bp   *tournament
	pf   prefetch.Prefetcher
	gap  *pipeline.Gap
	ghr  predictor.GHR
	path predictor.PathHist

	// Memory ops, loads and branches of the stream so far.
	ops, loads, branches int
}

// outcomes sets up the columns of a run of spec's predictor, nil for
// none, at gapDepth under cfg.
func (s Shard) outcomes(cfg Config, spec predictor.Spec, gapDepth int) outcomes {
	m := s.m
	o := outcomes{ref: &m.ref, check: m.ref.ok}
	if !o.check {
		m.ref.addr = m.ref.addr[:0]
	}
	var stored bool
	if o.mem, stored = m.memFor(m.shape, cfg.Prefetcher); !stored {
		m.hier.Reset()
		m.bp.reset()
		o.hier, o.bp, o.pf = m.hier, m.bp, cfg.Prefetcher
	}
	if spec != nil {
		if o.pred, stored = m.predFor(spec, gapDepth); !stored {
			o.gap = pipeline.New(s.build(spec), gapDepth)
		}
	}
	return o
}

// grow extends s by n elements, reallocating only past its capacity.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s, n)[:len(s)+n]
}

// fill computes block b's part of the columns the run fills and checks
// b's memory ops against the shard's stream reference. Each column
// grows by the block's length at most once, before the event loop.
func (o *outcomes) fill(b *trace.Block) error {
	n := len(b.KindTaken)
	ref, mem, pred := o.ref, o.mem, o.pred
	if !o.check {
		ref.addr = grow(ref.addr, n)
	}
	if o.hier != nil {
		mem.level = grow(mem.level, n)
		mem.mispred = grow(mem.mispred, n)
	}
	if o.gap != nil {
		pred.out = grow(pred.out, n)
	}
	ops, loads, branches := o.ops, o.loads, o.branches
	for i, kb := range b.KindTaken {
		switch kind := trace.Kind(kb &^ trace.KindTakenBit); kind {
		case trace.KindLoad, trace.KindStore:
			addr := b.Addr[i]
			if !o.check {
				ref.addr[ops] = addr
			} else if ops >= len(ref.addr) || ref.addr[ops] != addr {
				return o.diverged("memory op", ops, addr)
			}
			if o.hier != nil {
				if kind == trace.KindLoad && o.pf != nil {
					if pfAddr, ok := o.pf.Observe(b.IP[i], addr); ok {
						o.hier.Prefetch(pfAddr)
					}
				}
				mem.level[ops] = o.hier.Serve(addr, kind == trace.KindStore)
			}
			ops++
			if kind != trace.KindLoad || pred == nil {
				continue
			}
			if o.gap != nil {
				ref := predictor.LoadRef{
					IP: b.IP[i], Offset: b.Offset[i],
					GHR: o.ghr.Value(), Path: o.path.Value(),
				}
				p := o.gap.Process(ref, addr)
				switch {
				case p.Speculate && p.Addr == addr:
					pred.out[loads] = rightSpec
				case p.Speculate:
					pred.out[loads] = wrongSpec
				default:
					pred.out[loads] = noSpec
				}
			} else if loads >= len(pred.out) {
				return o.diverged("load", loads, addr)
			}
			loads++

		case trace.KindBranch:
			taken := kb&trace.KindTakenBit != 0
			if o.hier != nil {
				ip := b.IP[i]
				mem.mispred[branches] = o.bp.predict(ip) != taken
				o.bp.update(ip, taken)
			} else if branches >= len(mem.mispred) {
				return o.diverged("branch", branches, b.IP[i])
			}
			branches++
			o.ghr.Update(taken)

		case trace.KindCall:
			o.path.Push(b.IP[i])
		}
	}
	if !o.check {
		ref.addr = ref.addr[:ops]
	}
	if o.hier != nil {
		mem.level = mem.level[:ops]
		mem.mispred = mem.mispred[:branches]
	}
	if o.gap != nil {
		pred.out = pred.out[:loads]
	}
	o.ops, o.loads, o.branches = ops, loads, branches
	return nil
}

// diverged is the error of a stream whose what-th op of its kind,
// carrying v, is not the one the stored columns hold.
func (o *outcomes) diverged(what string, index int, v uint32) error {
	return fmt.Errorf("%w: %s %d (%#x) is not the stored one", ErrDiverged, what, index, v)
}

// finish ends a run of events events: a checked stream must have the
// reference's length, and a clean run stores the columns it filled.
func (o *outcomes) finish(events int64, err error) error {
	if o.gap != nil {
		o.gap.Drain()
	}
	if err != nil {
		return err
	}
	switch {
	case !o.check:
		o.ref.ok, o.ref.events = true, events
	case events != o.ref.events || o.ops != len(o.ref.addr):
		return fmt.Errorf("%w: %d events, %d memory ops; stored %d and %d",
			ErrDiverged, events, o.ops, o.ref.events, len(o.ref.addr))
	case o.hier == nil && o.branches != len(o.mem.mispred):
		return fmt.Errorf("%w: %d branches, stored %d", ErrDiverged, o.branches, len(o.mem.mispred))
	case o.pred != nil && o.gap == nil && o.loads != len(o.pred.out):
		return fmt.Errorf("%w: %d loads, stored %d", ErrDiverged, o.loads, len(o.pred.out))
	}
	o.mem.ok = true
	if o.pred != nil {
		o.pred.ok = true
	}
	return nil
}

// Run times the shard's trace on the configured machine with spec's
// address predictor, or without one for a nil spec (the paper's
// baseline); a run that reads stored predictions builds no predictor.
// gapDepth defers prediction verification by that many dynamic loads
// (§5), and depth 0 is the immediate update. The Result equals a fresh
// Machine's run of the same stream.
func (s Shard) Run(src trace.Source, spec predictor.Spec, gapDepth int, cfg Config) Result {
	m := s.m
	m.reset(cfg)
	o := s.outcomes(cfg, spec, gapDepth)
	var (
		res  Result
		lats [3]int64 // load-to-use latency by serving level

		complete = m.complete
		retire   = m.retire

		seq        int64
		fetchCycle int64 // cycle currently being filled with fetches
		fetchUsed  int   // fetches already issued this cycle
		flushUntil int64 // front-end stall from a branch misprediction

		fus   = m.fus
		ports = m.ports

		// Cursors into the stream-determined columns, and the demand
		// accesses the L1 served.
		ops, loads, branches int
		l1Hits               int64
	)
	for l := range lats {
		lats[l] = int64(cfg.Hierarchy.Latency(memsys.Level(l)))
	}

	lastRetire := int64(0)

	// Events arrive in pooled SoA blocks — polling the context (and paying
	// the source's interface dispatch) once per block instead of once per
	// event keeps cancellation latency in the microseconds, and the block
	// stays on the warm replay cursor's zero-copy path end to end. fill
	// first brings the stream-determined columns up to the block's end;
	// the schedule then reads them and the block's own columns directly,
	// dispatching on the kind byte once: each case reads only the columns
	// its kind carries, and the readiness check, which runs before the
	// dispatch, masks Src1/Src2 by kind so a kind that does not carry them
	// reads no dependency rather than another event's stale cell.
	bs := trace.AsBlocks(src)
	block := trace.GetBlock()
	defer trace.PutBlock(block)
	for {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				res.Err = err
				break
			}
		}
		_, ok := bs.NextBlock(block, trace.BlockLen)
		if err := o.fill(block); err != nil {
			res.Err = err
			break
		}
		for bi, kb := range block.KindTaken {
			kind := trace.Kind(kb &^ trace.KindTakenBit)

			// Fetch: width-limited, stalled by flushes and the finite window.
			f := fetchCycle
			if flushUntil > f {
				f, fetchUsed = flushUntil, 0
			}
			if wstart := retire.get(seq - int64(cfg.Window)); wstart > f {
				f, fetchUsed = wstart, 0
			}
			if fetchUsed >= cfg.FetchWidth {
				f, fetchUsed = f+1, 0
			}
			fetchCycle = f
			fetchUsed++

			dispatch := f + int64(cfg.FrontDepth)

			// Readiness: dispatch plus source operands. Producers further back
			// than the completion ring have long retired; their values are
			// ready by construction.
			ready := dispatch
			if d := int64(block.Src1[bi] & src1Mask[kind&7]); d != 0 && d <= complete.mask {
				if c := complete.get(seq - d); c > ready {
					ready = c
				}
			}
			if d := int64(block.Src2[bi] & src2Mask[kind&7]); d != 0 && d <= complete.mask {
				if c := complete.get(seq - d); c > ready {
					ready = c
				}
			}

			var done int64
			switch kind {
			case trace.KindALU:
				issue := fus.reserve(ready)
				done = issue + int64(trace.Latency(block.Lat[bi]))

			case trace.KindStore:
				if o.mem.level[ops] == memsys.L1 {
					l1Hits++
				}
				ops++
				issue := fus.reserve(ready)
				issue = ports.reserve(issue)
				done = issue + 1

			case trace.KindLoad:
				level := o.mem.level[ops]
				ops++
				if level == memsys.L1 {
					l1Hits++
				}
				res.Loads++
				p := noSpec
				if o.pred != nil {
					p = o.pred.out[loads]
				}
				loads++
				lat := lats[level]
				switch p {
				case rightSpec:
					// Correct speculative access: launched in the front end at
					// fetch, so the data returns at f+lat and dependents do not
					// wait for address generation. The port was used early.
					res.SpecAccesses++
					res.CorrectSpec++
					ports.reserve(f)
					avail := f + lat
					if avail < dispatch+1 {
						avail = dispatch + 1
					}
					// Verification still occupies a unit once sources arrive.
					fus.reserve(ready)
					done = avail
				case wrongSpec:
					// Wrong speculative access: normal access plus selective
					// re-execution of the dependents already scheduled.
					res.SpecAccesses++
					res.MispredSpec++
					ports.reserve(f)
					issue := fus.reserve(ready)
					issue = ports.reserve(issue)
					done = issue + int64(cfg.LoadPipeExtra) + lat + int64(cfg.AddrMispredPenalty)
				default:
					issue := fus.reserve(ready)
					issue = ports.reserve(issue)
					done = issue + int64(cfg.LoadPipeExtra) + lat
				}

			case trace.KindBranch:
				res.Branches++
				issue := fus.reserve(ready)
				done = issue + 1
				if o.mem.mispred[branches] {
					res.BranchMispreds++
					if fl := done + int64(cfg.BranchFlushPenalty); fl > flushUntil {
						flushUntil = fl
					}
				}
				branches++

			case trace.KindCall, trace.KindReturn:
				issue := fus.reserve(ready)
				done = issue + 1
			}

			complete.set(seq, done)
			ret := done
			if ret < lastRetire {
				ret = lastRetire
			}
			retire.set(seq, ret)
			lastRetire = ret

			seq++
		}
		if !ok {
			break
		}
	}
	res.Instructions = seq
	res.Cycles = lastRetire
	if ops > 0 {
		res.L1HitRate = float64(l1Hits) / float64(ops)
	}
	// A decode error must not pass for clean EOF: the cycle counts of a
	// truncated run look plausible but measure a different program.
	if err := src.Err(); err != nil && res.Err == nil {
		res.Err = fmt.Errorf("trace source: %w", err)
	}
	res.Err = o.finish(seq, res.Err)
	return res
}
