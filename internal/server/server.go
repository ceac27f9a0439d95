// Package server implements capserve: a long-running HTTP service
// exposing the simulator over two surfaces — streaming prediction
// sessions (open a session bound to a predictor configuration, POST v3
// trace bytes at it, read running counters bit-identical to an offline
// RunTrace) and an async experiment job queue running registry
// experiments on the sharded scheduler. Stdlib only, like the rest of
// the project.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"capred/internal/sim"
)

// Config tunes a Server. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// MaxSessions bounds concurrently-open prediction sessions; opening
	// past it returns 429 + Retry-After. 0 means unbounded.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this. 0 disables TTL
	// eviction.
	SessionTTL time.Duration
	// SweepInterval is the janitor period for TTL eviction. Eviction also
	// happens lazily on access, so 0 (no janitor) only delays reclaiming
	// sessions nobody touches again.
	SweepInterval time.Duration
	// SessionEventBudget caps events one session may ingest; 0 = unlimited.
	SessionEventBudget int64
	// GlobalEventBudget caps events ingested across all sessions over the
	// server's lifetime; 0 = unlimited.
	GlobalEventBudget int64
	// MaxBatchBytes caps one POST …/events request body.
	MaxBatchBytes int64

	// JobEvents is the default per-trace event budget for jobs.
	JobEvents int64
	// Workers is the default scheduler worker count for jobs.
	Workers int
	// TraceTimeout and SourceRetries carry the resilience policy into job
	// runs (see sim.Config).
	TraceTimeout  time.Duration
	SourceRetries int
	// JobQueueDepth bounds queued-but-not-started jobs; submitting past it
	// returns 429 + Retry-After.
	JobQueueDepth int
	// JobRunners is how many jobs execute concurrently.
	JobRunners int
	// ReplayCacheBudget sizes the decoded-trace replay cache shared by all
	// jobs, in bytes. 0 disables it.
	ReplayCacheBudget int64

	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		// 64 is a measured choice, not headroom to grow: under a 2x-overload
		// bursty day (capload, 2000 sessions / 512 users) the cap held p99
		// batch latency at 56ms where 128 let it double to 109ms — the cap
		// converts overload into brief Retry-After waits instead of queueing
		// delay (EXPERIMENTS.md, load-soak SLO table).
		MaxSessions: 64,
		// The TTL must clear a streaming client's longest legitimate think
		// gap (capload plans up to 1.5x its 5m mean, i.e. 7.5m). The old 5m
		// default sat inside that distribution and evicted 306 of 500 live
		// sessions in a compressed-day replay; 10m evicted none.
		SessionTTL:         10 * time.Minute,
		SweepInterval:      30 * time.Second,
		SessionEventBudget: 200_000_000,
		GlobalEventBudget:  2_000_000_000,
		MaxBatchBytes:      8 << 20,
		JobEvents:          1_000_000,
		Workers:            runtime.GOMAXPROCS(0),
		TraceTimeout:       5 * time.Minute,
		SourceRetries:      2,
		JobQueueDepth:      32,
		JobRunners:         1,
		ReplayCacheBudget:  256 << 20,
	}
}

func (c Config) now() func() time.Time {
	if c.Now != nil {
		return c.Now
	}
	return time.Now
}

// Server is the capserve HTTP service.
type Server struct {
	cfg   Config
	store *sessionStore
	jobs  *jobQueue
	reg   *Registry
	mux   *http.ServeMux
	http  *http.Server

	draining    atomic.Bool
	janitorStop chan struct{}

	// Metric series. Per-predictor-kind series are pre-registered so the
	// scrape surface is stable from the first request.
	mSessionsOpened *Var
	mSessionsClosed *Var
	mSessionsReject *Var
	mBatches        *Var
	mDroppedBudget  *Var
	mBatchTooLarge  *Var
	mBatchConflict  *Var
	mJobsSubmitted  *Var
	mJobsReject     *Var
	mJobsDone       *Var
	mJobsFailed     *Var
	mJobRun         Timing
	mJobWait        Timing
	mKindLoads      map[string]*Var
	mKindPredicted  map[string]*Var
	mKindCorrect    map[string]*Var
	mCompSelected   map[string]*Var
	mCompCorrect    map[string]*Var
}

// New builds a Server from cfg. Call Serve (or use Handler in tests) to
// take traffic, and Shutdown to drain.
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		store:       newSessionStore(cfg),
		jobs:        newJobQueue(cfg),
		reg:         NewRegistry(),
		mux:         http.NewServeMux(),
		janitorStop: make(chan struct{}),
	}
	s.registerMetrics()
	s.jobs.onQueueWait = s.mJobWait.Observe
	s.jobs.onRun = func(d time.Duration, state JobState) {
		s.mJobRun.Observe(d)
		if state == JobDone {
			s.mJobsDone.Inc()
		} else {
			s.mJobsFailed.Inc()
		}
	}
	s.routes()
	s.http = &http.Server{Handler: s.mux}
	if cfg.SweepInterval > 0 && cfg.SessionTTL > 0 {
		go s.janitor()
	}
	return s
}

func (s *Server) registerMetrics() {
	r := s.reg
	r.GaugeFunc("capserve_sessions_open", "Prediction sessions currently open.", "",
		func() int64 { return int64(s.store.open()) })
	s.mSessionsOpened = r.Counter("capserve_sessions_opened_total", "Prediction sessions opened.", "")
	s.mSessionsClosed = r.Counter("capserve_sessions_closed_total", "Prediction sessions closed by clients.", "")
	r.CounterFunc("capserve_sessions_evicted_total", "Prediction sessions evicted after the idle TTL.", "",
		s.store.evicted.Load)
	s.mSessionsReject = r.Counter("capserve_sessions_rejected_total", "Session opens rejected for capacity or drain (HTTP 429).", "")
	r.CounterFunc("capserve_events_ingested_total", "Trace events ingested across all sessions.", "",
		s.store.ingested)
	s.mBatches = r.Counter("capserve_batches_served_total", "Event batches decoded, predicted and answered.", "")
	s.mDroppedBudget = r.Counter("capserve_batches_dropped_budget_total", "Event batches rejected by a per-session or global event budget.", "")
	s.mBatchTooLarge = r.Counter("capserve_batches_rejected_too_large_total", "Event batches rejected for exceeding the request body cap (HTTP 413).", "")
	s.mBatchConflict = r.Counter("capserve_batches_conflict_total", "Event batches rejected because the session had already finished (HTTP 409).", "")
	s.mJobsSubmitted = r.Counter("capserve_jobs_submitted_total", "Experiment jobs accepted into the queue.", "")
	s.mJobsReject = r.Counter("capserve_jobs_rejected_total", "Experiment jobs rejected because the queue was full (HTTP 429).", "")
	s.mJobsDone = r.Counter("capserve_jobs_completed_total", "Experiment jobs finished, by outcome.", `status="done"`)
	s.mJobsFailed = r.Counter("capserve_jobs_completed_total", "Experiment jobs finished, by outcome.", `status="failed"`)
	r.GaugeFunc("capserve_job_queue_depth", "Jobs queued but not yet started.", "",
		func() int64 { return int64(s.jobs.depth()) })
	s.mJobRun = r.Timing("capserve_job_run_seconds", "Wall time jobs spent executing.")
	s.mJobWait = r.Timing("capserve_job_queue_wait_seconds", "Wall time jobs spent queued before starting.")

	s.mKindLoads = make(map[string]*Var)
	s.mKindPredicted = make(map[string]*Var)
	s.mKindCorrect = make(map[string]*Var)
	for _, kind := range PredictorKinds() {
		labels := fmt.Sprintf("predictor=%q", kind)
		s.mKindLoads[kind] = r.Counter("capserve_loads_total", "Loads stepped through sessions, by predictor kind.", labels)
		s.mKindPredicted[kind] = r.Counter("capserve_predicted_total", "Confident predictions made in sessions, by predictor kind.", labels)
		s.mKindCorrect[kind] = r.Counter("capserve_correct_total", "Correct confident predictions in sessions, by predictor kind.", labels)
	}

	// Tournament sessions additionally break speculative selections down
	// by winning component; every buildable component's series exists
	// from startup so scrapes never see labels appear mid-run.
	s.mCompSelected = make(map[string]*Var)
	s.mCompCorrect = make(map[string]*Var)
	for _, name := range tournamentComponentLabels() {
		labels := fmt.Sprintf("component=%q", name)
		s.mCompSelected[name] = r.Counter("capserve_tournament_selected_total", "Predictions launched speculatively and won, by tournament component.", labels)
		s.mCompCorrect[name] = r.Counter("capserve_tournament_selected_correct_total", "Correct speculative predictions among those won, by tournament component.", labels)
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/predictors", s.handlePredictors)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/table", s.handleJobTable)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// Handler exposes the route table (tests drive it via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve takes traffic on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// BeginDrain flips the server into drain mode: health goes 503, new
// sessions and jobs get 429 + Retry-After, in-flight work continues.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown gracefully stops the server: drain mode on, running jobs get
// until ctx's deadline, in-flight HTTP requests complete, then listeners
// close. Safe to call without a prior Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.janitorStop:
	default:
		close(s.janitorStop)
	}
	s.jobs.stop(ctx)
	return s.http.Shutdown(ctx)
}

func (s *Server) janitor() {
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.store.sweep()
		}
	}
}

// --- response plumbing ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

var errDraining = errors.New("server is draining; retry against another instance")

// --- health & metrics ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"sessions_open": s.store.open(),
		"jobs_queued":   s.jobs.depth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.Render(w)
}

// --- discovery ---

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	var out []entry
	for _, e := range sim.Experiments() {
		out = append(out, entry{e.Name, e.Desc})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePredictors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, PredictorKinds())
}

// --- sessions ---

// sessionView is the wire rendering of a session.
type sessionView struct {
	ID        string        `json:"id"`
	Config    SessionConfig `json:"config"`
	CreatedAt string        `json:"created_at"`
	Events    int64         `json:"events"`
	Batches   int64         `json:"batches"`
	Finished  bool          `json:"finished"`
	Counters  any           `json:"counters"`
}

func viewOf(sess *session) sessionView {
	snap := sess.snapshot()
	return sessionView{
		ID:        sess.ID,
		Config:    sess.Cfg,
		CreatedAt: rfc3339(sess.CreatedAt),
		Events:    snap.Events,
		Batches:   snap.Batches,
		Finished:  snap.Finished,
		Counters:  snap.C,
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.mSessionsReject.Inc()
		writeErr(w, http.StatusTooManyRequests, errDraining)
		return
	}
	var cfg SessionConfig
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding session config: %w", err))
		return
	}
	sess, err := s.store.create(cfg)
	if err != nil {
		if errors.Is(err, errTooManySessions) {
			s.mSessionsReject.Inc()
			writeErr(w, http.StatusTooManyRequests, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mSessionsOpened.Inc()
	writeJSON(w, http.StatusCreated, viewOf(sess))
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.store.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(sess))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess, err := s.store.remove(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.mSessionsClosed.Inc()
	if err := sess.finish(); err != nil {
		// The stream ended mid-event: surface it like an offline decode of
		// a truncated trace would, alongside the counters reached.
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":   err.Error(),
			"session": viewOf(sess),
		})
		return
	}
	writeJSON(w, http.StatusOK, viewOf(sess))
}

// batchResponse answers one POST …/events.
type batchResponse struct {
	Session  string `json:"session"`
	Events   int64  `json:"events"`
	Total    int64  `json:"total_events"`
	Batches  int64  `json:"batches"`
	Counters any    `json:"counters"`
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, err := s.store.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.mBatchTooLarge.Inc()
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch exceeds %d bytes; split the stream into smaller posts", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading batch: %w", err))
		return
	}
	res, err := sess.ingest(s.store, body)
	switch {
	case errors.Is(err, errBudget):
		s.mDroppedBudget.Inc()
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, errFinished):
		s.mBatchConflict.Inc()
		writeErr(w, http.StatusConflict, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mBatches.Inc()
	kind := sess.Cfg.Predictor
	s.mKindLoads[kind].Add(res.DLoads)
	s.mKindPredicted[kind].Add(res.DPredicted)
	s.mKindCorrect[kind].Add(res.DCorrect)
	for _, d := range res.DSel {
		if v, ok := s.mCompSelected[d.Name]; ok {
			v.Add(d.Selected)
		}
		if v, ok := s.mCompCorrect[d.Name]; ok {
			v.Add(d.Correct)
		}
	}
	writeJSON(w, http.StatusOK, batchResponse{
		Session:  sess.ID,
		Events:   res.Events,
		Total:    res.Total,
		Batches:  res.Batches,
		Counters: res.C,
	})
}

// --- jobs ---

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.mJobsReject.Inc()
		writeErr(w, http.StatusTooManyRequests, errDraining)
		return
	}
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding job request: %w", err))
		return
	}
	j, err := s.jobs.submit(req)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			s.mJobsReject.Inc()
			writeErr(w, http.StatusTooManyRequests, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mJobsSubmitted.Inc()
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobTable(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	table, done := j.renderedTable()
	if !done {
		writeErr(w, http.StatusConflict, fmt.Errorf("job is %s; the table exists once it is %s", j.status().State, JobDone))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, table)
}
