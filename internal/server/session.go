package server

// Prediction sessions: a client binds a session to a named predictor
// configuration and streams trace events at it in the v3 binary
// encoding, split across request bodies at arbitrary byte boundaries;
// each batch returns the predictions' running counters. The session owns
// a StreamDecoder (delta state spans bodies) and a sim.Stepper (the same
// per-event path RunTrace uses), so a session's counters after N events
// are bit-identical to an offline RunTrace over those N events.
//
// Lifecycle: sessions are bounded in number (backpressure: 429 +
// Retry-After), in per-session events, and in whole-server ingested
// events; idle sessions are evicted after the TTL by a janitor sweep
// (and lazily on access, so tests and single-threaded callers never
// race the sweeper).

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/sim"
	"capred/internal/trace"
)

// session is one live prediction session.
type session struct {
	ID        string
	Cfg       SessionConfig
	CreatedAt time.Time

	mu       sync.Mutex // serialises batches; protects everything below
	dec      *trace.StreamDecoder
	st       *sim.Stepper
	events   int64 // events ingested (all kinds)
	batches  int64
	lastUsed time.Time
	finished bool // Finish() ran (gap drained); terminal
	// prevSel is the component-selection snapshot after the previous
	// batch (tournament sessions only); ingest diffs against it to feed
	// the per-component /metrics series.
	prevSel []predictor.ComponentStat
}

// sessionSnapshot is a consistent view of a session's progress, taken
// under the session lock so it never interleaves with a batch.
type sessionSnapshot struct {
	Events   int64
	Batches  int64
	Finished bool
	C        metrics.Counters
}

func (s *session) snapshot() sessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sessionSnapshot{Events: s.events, Batches: s.batches, Finished: s.finished, C: s.st.C}
}

// ingestResult reports one applied batch: the events it contained, the
// session's running totals and counters after it, and the counter deltas
// it contributed (feeding the per-predictor-kind metric series).
type ingestResult struct {
	Events  int64
	Total   int64
	Batches int64
	C       metrics.Counters

	DLoads, DPredicted, DCorrect int64
	// DSel is the batch's per-component selection delta (tournament
	// sessions only; nil otherwise).
	DSel []predictor.ComponentStat
}

// sessionStore owns every live session and enforces the capacity,
// budget and TTL policies.
type sessionStore struct {
	maxSessions  int
	ttl          time.Duration
	sessionLimit int64 // events per session; 0 = unlimited
	globalLimit  int64 // events across all sessions since start; 0 = unlimited
	now          func() time.Time

	mu       sync.Mutex
	sessions map[string]*session

	// globalEvents is atomic, not st.mu-guarded: ingest consults it while
	// holding a session's lock, and the store lock nests outside session
	// locks everywhere else (get/evict), so taking st.mu there would be a
	// lock-order inversion.
	globalEvents atomic.Int64
	evicted      atomic.Int64 // cumulative TTL evictions, for /metrics
}

func newSessionStore(cfg Config) *sessionStore {
	return &sessionStore{
		maxSessions:  cfg.MaxSessions,
		ttl:          cfg.SessionTTL,
		sessionLimit: cfg.SessionEventBudget,
		globalLimit:  cfg.GlobalEventBudget,
		now:          cfg.now(),
		sessions:     make(map[string]*session),
	}
}

// Errors mapped onto HTTP statuses by the handlers.
var (
	errTooManySessions = errors.New("session capacity exhausted")
	errNotFound        = errors.New("no such session")
	errBudget          = errors.New("event budget exhausted")
	errFinished        = errors.New("session already finished")
)

// newID returns a 16-hex-char random identifier with a type prefix.
func newID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: id entropy unavailable: %v", err))
	}
	return prefix + hex.EncodeToString(b[:])
}

// create opens a session bound to cfg. It fails with errTooManySessions
// when the store is at capacity after evicting expired sessions.
func (st *sessionStore) create(cfg SessionConfig) (*session, error) {
	p, err := cfg.build()
	if err != nil {
		return nil, err
	}
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked(now)
	if st.maxSessions > 0 && len(st.sessions) >= st.maxSessions {
		return nil, errTooManySessions
	}
	s := &session{
		ID:        newID("s"),
		Cfg:       cfg,
		CreatedAt: now,
		dec:       trace.NewStreamDecoder(),
		st:        sim.NewStepper(p, cfg.Gap),
		lastUsed:  now,
	}
	st.sessions[s.ID] = s
	return s, nil
}

// get returns the session, refreshing its TTL clock.
func (st *sessionStore) get(id string) (*session, error) {
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked(now)
	s, ok := st.sessions[id]
	if !ok {
		return nil, errNotFound
	}
	s.mu.Lock()
	s.lastUsed = now
	s.mu.Unlock()
	return s, nil
}

// remove deletes the session, returning it for a final render.
func (st *sessionStore) remove(id string) (*session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	if !ok {
		return nil, errNotFound
	}
	delete(st.sessions, id)
	return s, nil
}

// open returns the number of live sessions.
func (st *sessionStore) open() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// ingested returns the global ingested-event count.
func (st *sessionStore) ingested() int64 { return st.globalEvents.Load() }

// sweep evicts TTL-expired sessions and returns how many it removed.
func (st *sessionStore) sweep() int {
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evictLocked(now)
}

func (st *sessionStore) evictLocked(now time.Time) int {
	if st.ttl <= 0 {
		return 0
	}
	n := 0
	for id, s := range st.sessions {
		s.mu.Lock()
		expired := now.Sub(s.lastUsed) > st.ttl
		s.mu.Unlock()
		if expired {
			delete(st.sessions, id)
			n++
		}
	}
	st.evicted.Add(int64(n))
	return n
}

// admitEvents rejects ingest once the global budget is spent. Admission
// is a pre-check: the per-batch overshoot is bounded by the request body
// cap, which is the trade that keeps batches from being half-applied.
func (st *sessionStore) admitEvents() error {
	if used := st.globalEvents.Load(); st.globalLimit > 0 && used >= st.globalLimit {
		return fmt.Errorf("%w: server ingested %d of %d budgeted events", errBudget, used, st.globalLimit)
	}
	return nil
}

// chargeEvents records n ingested events against the global budget.
func (st *sessionStore) chargeEvents(n int64) { st.globalEvents.Add(n) }

// ingest decodes one request body's chunk of the session's event stream
// and steps the predictor over every complete event, returning the
// number of events applied. The whole batch is applied atomically with
// respect to budget admission: admission is checked before any decode,
// so a rejected batch leaves the decoder and predictor untouched and the
// client can close the session cleanly.
func (s *session) ingest(st *sessionStore, body []byte) (ingestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return ingestResult{}, errFinished
	}
	if st.sessionLimit > 0 && s.events >= st.sessionLimit {
		return ingestResult{}, fmt.Errorf("%w: session ingested %d of %d budgeted events", errBudget, s.events, st.sessionLimit)
	}
	if err := st.admitEvents(); err != nil {
		return ingestResult{}, err
	}
	before := s.st.C
	evBefore := s.dec.Events()
	// Block-native ingest: the decoder writes columns, the stepper reads
	// them; no []Event batch is materialised between the two.
	if err := s.dec.FeedBlocks(body, s.st.StepBlock); err != nil {
		return ingestResult{}, err
	}
	n := s.dec.Events() - evBefore
	s.events += n
	s.batches++
	s.lastUsed = st.now()
	st.chargeEvents(n)
	res := ingestResult{
		Events:     n,
		Total:      s.events,
		Batches:    s.batches,
		C:          s.st.C,
		DLoads:     s.st.C.Loads - before.Loads,
		DPredicted: s.st.C.Predicted - before.Predicted,
		DCorrect:   s.st.C.Correct - before.Correct,
	}
	// Tournament sessions surface their per-component selections on
	// /metrics. A hybrid is the same chooser, but its selections stay
	// out of those series.
	if s.Cfg.Predictor == "tournament" {
		cur := s.st.Predictor().(*predictor.Tournament).ComponentStats()
		res.DSel = make([]predictor.ComponentStat, len(cur))
		copy(res.DSel, cur)
		for i := range res.DSel {
			if i < len(s.prevSel) {
				res.DSel[i].Selected -= s.prevSel[i].Selected
				res.DSel[i].Correct -= s.prevSel[i].Correct
			}
		}
		s.prevSel = cur
	}
	return res, nil
}

// finish drains the prediction gap (resolving in-flight predictions, as
// RunTrace does at clean end of stream) and declares the event stream
// complete. A stream ending mid-event is reported as an error, exactly
// like an offline decode of a truncated trace.
func (s *session) finish() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return nil
	}
	s.finished = true
	if err := s.dec.Close(); err != nil {
		return err
	}
	s.st.Finish()
	return nil
}
