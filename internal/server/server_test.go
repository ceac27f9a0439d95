package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"capred/internal/metrics"
	"capred/internal/sim"
)

// newTestServer builds a Server plus an httptest front end, torn down
// with the test.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// do issues one request and returns the status and body.
func do(t *testing.T, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// sessionView mirrors the wire shape of a session response.
type sessionViewResp struct {
	ID       string           `json:"id"`
	Events   int64            `json:"events"`
	Batches  int64            `json:"batches"`
	Finished bool             `json:"finished"`
	Counters metrics.Counters `json:"counters"`
}

// openSession creates a session over HTTP and returns its view.
func openSession(t *testing.T, base string, cfg SessionConfig) sessionViewResp {
	t.Helper()
	body, _ := json.Marshal(cfg)
	code, b, _ := do(t, "POST", base+"/v1/sessions", body)
	if code != http.StatusCreated {
		t.Fatalf("create session %+v: %d %s", cfg, code, b)
	}
	var v sessionViewResp
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// streamSession posts data in chunkSize pieces and deletes the session,
// returning the final (post-Finish) view.
func streamSession(t *testing.T, base, id string, data []byte, chunkSize int) sessionViewResp {
	t.Helper()
	for _, chunk := range chunks(data, chunkSize) {
		code, b, _ := do(t, "POST", base+"/v1/sessions/"+id+"/events", chunk)
		if code != http.StatusOK {
			t.Fatalf("post events: %d %s", code, b)
		}
	}
	code, b, _ := do(t, "DELETE", base+"/v1/sessions/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("delete session: %d %s", code, b)
	}
	var v sessionViewResp
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSessionStreamMatchesOffline is the tentpole guarantee: a session's
// counters after streaming N events over HTTP, in chunks that ignore
// event boundaries, equal an offline RunTrace over the same events —
// field for field, including the hybrid selector statistics.
func TestSessionStreamMatchesOffline(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []SessionConfig{
		{Predictor: "last"},
		{Predictor: "stride"},
		{Predictor: "stride-basic"},
		{Predictor: "cap"},
		{Predictor: "hybrid"},
		{Predictor: "stride", Gap: 8},
		{Predictor: "cap", Gap: 8},
		{Predictor: "hybrid", Gap: 8},
		{Predictor: "tournament"},
		{Predictor: "tournament", Gap: 8},
		{Predictor: "tournament", Components: []string{"stride", "cap"}},
		{Predictor: "tournament", Components: []string{"markov", "last"}, Gap: 8},
		{Predictor: "last", Gap: 8},
	}
	for i, cfg := range cases {
		name := fmt.Sprintf("%s-gap%d", cfg.Predictor, cfg.Gap)
		t.Run(name, func(t *testing.T) {
			evs := collectEvents(t, i, 5_000)
			want := offlineCounters(t, cfg, evs)
			v := openSession(t, ts.URL, cfg)
			final := streamSession(t, ts.URL, v.ID, encodeTrace(t, evs), 777)
			if final.Counters != want {
				t.Fatalf("server counters differ from offline run:\nserver:  %+v\noffline: %+v", final.Counters, want)
			}
			if final.Events != int64(len(evs)) {
				t.Fatalf("events: got %d, want %d", final.Events, len(evs))
			}
			if !final.Finished {
				t.Fatal("final view not marked finished")
			}
		})
	}
}

// TestConcurrentSessionsBitIdentical runs the acceptance criterion: at
// least 8 sessions streaming concurrently, each over a different trace
// and predictor configuration, all ending bit-identical to their offline
// reference. Run under -race in CI.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cfgs := []SessionConfig{
		{Predictor: "last"},
		{Predictor: "stride"},
		{Predictor: "stride-basic"},
		{Predictor: "cap"},
		{Predictor: "hybrid"},
		{Predictor: "stride", Gap: 8},
		{Predictor: "cap", Gap: 4},
		{Predictor: "hybrid", Gap: 8},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs := collectEvents(t, i, 3_000)
			want := offlineCounters(t, cfg, evs)
			v := openSession(t, ts.URL, cfg)
			final := streamSession(t, ts.URL, v.ID, encodeTrace(t, evs), 513)
			if final.Counters != want {
				errs <- fmt.Errorf("%s gap %d: server %+v != offline %+v", cfg.Predictor, cfg.Gap, final.Counters, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDrainSemantics(t *testing.T) {
	s, ts := newTestServer(t, nil)

	v := openSession(t, ts.URL, SessionConfig{Predictor: "stride"})
	evs := collectEvents(t, 0, 1_000)
	data := encodeTrace(t, evs)
	half := len(data) / 2
	if code, b, _ := do(t, "POST", ts.URL+"/v1/sessions/"+v.ID+"/events", data[:half]); code != http.StatusOK {
		t.Fatalf("pre-drain batch: %d %s", code, b)
	}

	s.BeginDrain()

	if code, _, _ := do(t, "GET", ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", code)
	}
	body, _ := json.Marshal(SessionConfig{Predictor: "cap"})
	code, _, hdr := do(t, "POST", ts.URL+"/v1/sessions", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("new session during drain: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 during drain must carry Retry-After")
	}
	if code, _, _ := do(t, "POST", ts.URL+"/v1/jobs", []byte(`{"experiment":"baselines"}`)); code != http.StatusTooManyRequests {
		t.Fatalf("new job during drain: %d, want 429", code)
	}

	// In-flight work completes: the open session still takes batches and
	// closes cleanly, matching the offline run.
	if code, b, _ := do(t, "POST", ts.URL+"/v1/sessions/"+v.ID+"/events", data[half:]); code != http.StatusOK {
		t.Fatalf("in-flight batch during drain: %d %s", code, b)
	}
	code, b, _ := do(t, "DELETE", ts.URL+"/v1/sessions/"+v.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("close during drain: %d %s", code, b)
	}
	var final sessionViewResp
	if err := json.Unmarshal(b, &final); err != nil {
		t.Fatal(err)
	}
	if want := offlineCounters(t, SessionConfig{Predictor: "stride"}, evs); final.Counters != want {
		t.Fatalf("drained session counters: %+v, want %+v", final.Counters, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSessionCapacityBackpressure(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxSessions = 1 })
	openSession(t, ts.URL, SessionConfig{Predictor: "stride"})
	body, _ := json.Marshal(SessionConfig{Predictor: "cap"})
	code, _, hdr := do(t, "POST", ts.URL+"/v1/sessions", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity create: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After on capacity 429")
	}
}

func TestBudget429AndMetrics(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.SessionEventBudget = 100 })
	v := openSession(t, ts.URL, SessionConfig{Predictor: "stride"})
	data := encodeTrace(t, collectEvents(t, 0, 150))
	if code, b, _ := do(t, "POST", ts.URL+"/v1/sessions/"+v.ID+"/events", data); code != http.StatusOK {
		t.Fatalf("first batch: %d %s", code, b)
	}
	if code, _, _ := do(t, "POST", ts.URL+"/v1/sessions/"+v.ID+"/events", nil); code != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch: %d, want 429", code)
	}

	_, b, _ := do(t, "GET", ts.URL+"/metrics", nil)
	page := string(b)
	for _, want := range []string{
		"capserve_batches_dropped_budget_total 1",
		"capserve_events_ingested_total 150",
		"capserve_sessions_opened_total 1",
		"capserve_sessions_open 1",
		`capserve_loads_total{predictor="stride"}`,
		"# TYPE capserve_job_run_seconds summary",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, page)
		}
	}
}

func TestBatchBodyCap(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatchBytes = 64 })
	v := openSession(t, ts.URL, SessionConfig{Predictor: "stride"})
	big := encodeTrace(t, collectEvents(t, 0, 1_000))
	if code, _, _ := do(t, "POST", ts.URL+"/v1/sessions/"+v.ID+"/events", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d, want 413", code)
	}
}

func TestJobOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Workers = 2 })
	code, b, _ := do(t, "POST", ts.URL+"/v1/jobs", []byte(`{"experiment":"baselines"}`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != JobDone && st.State != JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		_, b, _ = do(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil)
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != JobDone {
		t.Fatalf("job failed: %+v", st)
	}

	code, b, _ = do(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/table", nil)
	if code != http.StatusOK {
		t.Fatalf("table: %d %s", code, b)
	}
	offline := sim.DefaultConfig()
	offline.EventsPerTrace = testConfig().JobEvents
	exp, _ := sim.ExperimentByName("baselines")
	if want := exp.Run(offline).Table().String(); string(b) != want {
		t.Fatalf("served table differs from offline run:\n--- served ---\n%s\n--- offline ---\n%s", b, want)
	}

	// The job list carries it, and /metrics saw it complete.
	code, b, _ = do(t, "GET", ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK || !strings.Contains(string(b), st.ID) {
		t.Fatalf("job list: %d %s", code, b)
	}
	_, b, _ = do(t, "GET", ts.URL+"/metrics", nil)
	if !strings.Contains(string(b), `capserve_jobs_completed_total{status="done"} 1`) {
		t.Fatalf("/metrics missing completed job:\n%s", b)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"unknown predictor", "POST", "/v1/sessions", `{"predictor":"oracle"}`, 400},
		{"missing predictor", "POST", "/v1/sessions", `{}`, 400},
		{"gap out of range", "POST", "/v1/sessions", `{"predictor":"stride","gap":300}`, 400},
		{"cap knob on stride", "POST", "/v1/sessions", `{"predictor":"stride","history_len":4}`, 400},
		{"update policy on cap", "POST", "/v1/sessions", `{"predictor":"cap","update_policy":"always"}`, 400},
		{"bad json", "POST", "/v1/sessions", `{`, 400},
		{"unknown experiment", "POST", "/v1/jobs", `{"experiment":"fig99"}`, 400},
		{"missing session", "GET", "/v1/sessions/s0000000000000000", "", 404},
		{"missing session delete", "DELETE", "/v1/sessions/s0000000000000000", "", 404},
		{"missing session events", "POST", "/v1/sessions/s0000000000000000/events", "", 404},
		{"missing job", "GET", "/v1/jobs/j0000000000000000", "", 404},
		{"missing job table", "GET", "/v1/jobs/j0000000000000000/table", "", 404},
	} {
		code, b, _ := do(t, tc.method, ts.URL+tc.path, []byte(tc.body))
		if code != tc.want {
			t.Errorf("%s: got %d (%s), want %d", tc.name, code, b, tc.want)
		}
		if !strings.Contains(string(b), `"error"`) {
			t.Errorf("%s: error body missing envelope: %s", tc.name, b)
		}
	}
}

func TestJobTableConflictBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.JobRunners = 0 // job stays queued
		c.JobQueueDepth = 1
	})
	code, b, _ := do(t, "POST", ts.URL+"/v1/jobs", []byte(`{"experiment":"baselines"}`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var st JobStatus
	json.Unmarshal(b, &st)
	if code, _, _ := do(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/table", nil); code != http.StatusConflict {
		t.Fatalf("table before done: %d, want 409", code)
	}
}

func TestDiscoveryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, b, _ := do(t, "GET", ts.URL+"/v1/experiments", nil)
	if code != http.StatusOK || !strings.Contains(string(b), "baselines") {
		t.Fatalf("experiments: %d %s", code, b)
	}
	code, b, _ = do(t, "GET", ts.URL+"/v1/predictors", nil)
	if code != http.StatusOK || !strings.Contains(string(b), "hybrid") {
		t.Fatalf("predictors: %d %s", code, b)
	}
	code, b, _ = do(t, "GET", ts.URL+"/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(b), `"ok"`) {
		t.Fatalf("healthz: %d %s", code, b)
	}
}

func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, nil)
	if code, _, _ := do(t, "GET", off.URL+"/debug/pprof/", nil); code != http.StatusNotFound {
		t.Fatalf("pprof off: %d, want 404", code)
	}
	_, on := newTestServer(t, func(c *Config) { c.EnablePprof = true })
	if code, _, _ := do(t, "GET", on.URL+"/debug/pprof/", nil); code != http.StatusOK {
		t.Fatalf("pprof on: %d, want 200", code)
	}
}
