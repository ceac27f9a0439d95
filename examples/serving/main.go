// The serving example drives capserve's HTTP API end to end: it starts
// the server in-process on a loopback port, opens a prediction session
// bound to the paper's hybrid predictor, streams a synthetic trace at it
// in small chunked POSTs, and shows that the counters the server hands
// back are bit-identical to an offline RunTrace over the same events.
// It then submits an experiment to the async job queue, polls it to
// completion, and prints the rendered table.
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"capred"
	"capred/internal/load"
	"capred/internal/server"
)

const (
	traceName = "INT_xli"
	events    = 60_000
	chunk     = 8 << 10 // stream in 8 KiB POSTs to exercise re-chunking
)

// sessionView mirrors the wire shape of GET/DELETE /v1/sessions/{id}.
type sessionView struct {
	ID       string          `json:"id"`
	Events   int64           `json:"events"`
	Batches  int64           `json:"batches"`
	Counters capred.Counters `json:"counters"`
}

// batchView mirrors the wire shape of POST /v1/sessions/{id}/events.
type batchView struct {
	Events   int64           `json:"events"`
	Total    int64           `json:"total_events"`
	Batches  int64           `json:"batches"`
	Counters capred.Counters `json:"counters"`
}

// jobView mirrors the wire shape of GET /v1/jobs/{id}.
type jobView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	ShardsDone  int64  `json:"shards_done"`
	ShardsTotal int64  `json:"shards_total"`
	Error       string `json:"error,omitempty"`
}

// apiClient is a capserve client that cooperates with the server's
// backpressure: 429 replies are retried after the server's Retry-After
// hint (bounded attempts), and oversized event batches (413) are split
// and resent in halves. Sleeping is injectable so tests can assert the
// waits without waiting.
type apiClient struct {
	hc       *http.Client
	sleep    func(time.Duration)
	maxTries int // attempts per request before giving up on 429s
}

func newClient() *apiClient {
	return &apiClient{hc: http.DefaultClient, sleep: time.Sleep, maxTries: 10}
}

// retryAfter parses the server's Retry-After hint. An absent hint falls
// back to half a second; a malformed one is an error — a client that
// silently invents a backoff hides a broken server from the one party
// positioned to notice.
func retryAfter(resp *http.Response) (time.Duration, error) {
	d, ok, err := load.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	if err != nil {
		return 0, fmt.Errorf("%s: %w", resp.Request.URL, err)
	}
	if !ok {
		return 500 * time.Millisecond, nil
	}
	return d, nil
}

// statusError is a non-2xx reply, keeping the code inspectable.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// call issues one request and decodes the JSON reply into out (when
// non-nil). 429 responses are retried per the server's Retry-After;
// any other non-2xx status fails with a *statusError.
func (c *apiClient) call(method, url string, body []byte, out any) error {
	var lastErr error
	for try := 0; try < c.maxTries; try++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return err
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
		if resp.StatusCode == http.StatusTooManyRequests {
			lastErr = &statusError{resp.StatusCode,
				fmt.Sprintf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))}
			wait, err := retryAfter(resp)
			if err != nil {
				return err
			}
			c.sleep(wait)
			continue
		}
		if resp.StatusCode/100 != 2 {
			return &statusError{resp.StatusCode,
				fmt.Sprintf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))}
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}
	return fmt.Errorf("gave up after %d attempts: %w", c.maxTries, lastErr)
}

// postEvents streams one chunk of v3 trace bytes at a session,
// splitting the chunk in half on 413 (the server buffers partial
// events across POSTs, so any byte split yields the same counters).
// The final batch reply of the sequence is decoded into out.
func (c *apiClient) postEvents(url string, data []byte, out *batchView) error {
	err := c.call("POST", url, data, out)
	var se *statusError
	if err == nil || !errors.As(err, &se) ||
		se.status != http.StatusRequestEntityTooLarge || len(data) < 2 {
		return err
	}
	half := len(data) / 2
	if err := c.postEvents(url, data[:half], out); err != nil {
		return err
	}
	return c.postEvents(url, data[half:], out)
}

// encodeTrace renders n events of the named trace in the v3 binary
// format — the same bytes tracegen would write to a file.
func encodeTrace(name string, n int64) []byte {
	spec, ok := capred.TraceByName(name)
	if !ok {
		log.Fatalf("unknown trace %q", name)
	}
	var buf bytes.Buffer
	w := capred.NewTraceWriter(&buf)
	src := capred.Limit(spec.Open(), n)
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Emit(ev); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func main() {
	// Start capserve in-process. Everything below this block is a plain
	// HTTP client and would work identically against `capserve -addr`.
	cfg := server.DefaultConfig()
	cfg.JobEvents = 50_000 // keep the demo job quick
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("capserve listening on %s\n\n", ln.Addr())
	c := newClient()

	// Open a session bound to the hybrid (stride + CAP) predictor.
	body, _ := json.Marshal(map[string]any{"predictor": "hybrid"})
	var sess sessionView
	if err := c.call("POST", base+"/v1/sessions", body, &sess); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened session %s (predictor=hybrid)\n", sess.ID)

	// Stream the trace bytes in chunks. Chunk boundaries are arbitrary:
	// the server buffers partial events across POSTs, so any split of the
	// byte stream yields the same counters.
	data := encodeTrace(traceName, events)
	var last batchView
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		url := base + "/v1/sessions/" + sess.ID + "/events"
		if err := c.postEvents(url, data[off:end], &last); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("streamed %s: %d loads over %d batches\n",
		traceName, last.Counters.Loads, last.Batches)

	// Close the session; the DELETE reply carries the final counters.
	var final sessionView
	if err := c.call("DELETE", base+"/v1/sessions/"+sess.ID, nil, &final); err != nil {
		log.Fatal(err)
	}

	// The same events through the offline path must agree bit for bit:
	// sessions and RunTrace share one per-event stepper.
	p := capred.NewHybrid(capred.DefaultHybridConfig())
	spec, _ := capred.TraceByName(traceName)
	want, err := capred.RunTrace(capred.Limit(spec.Open(), events), p, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served  accuracy: %6.2f%%  (%d/%d correct)\n",
		100*float64(final.Counters.Correct)/float64(final.Counters.Loads),
		final.Counters.Correct, final.Counters.Loads)
	fmt.Printf("offline accuracy: %6.2f%%  (%d/%d correct)\n",
		100*float64(want.Correct)/float64(want.Loads), want.Correct, want.Loads)
	if final.Counters != want {
		log.Fatalf("served counters diverge from offline RunTrace:\nserved  %+v\noffline %+v",
			final.Counters, want)
	}
	fmt.Println("served counters are bit-identical to offline RunTrace")

	// Same protocol, bigger predictor: a tournament session puts the
	// default components (stride, CAP, Markov) behind one meta-chooser.
	// The wire contract is unchanged — and so is the bit-for-bit
	// guarantee against the offline path.
	body, _ = json.Marshal(map[string]any{"predictor": "tournament"})
	var tsess sessionView
	if err := c.call("POST", base+"/v1/sessions", body, &tsess); err != nil {
		log.Fatal(err)
	}
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		url := base + "/v1/sessions/" + tsess.ID + "/events"
		if err := c.postEvents(url, data[off:end], &last); err != nil {
			log.Fatal(err)
		}
	}
	var tfinal sessionView
	if err := c.call("DELETE", base+"/v1/sessions/"+tsess.ID, nil, &tfinal); err != nil {
		log.Fatal(err)
	}
	twant, err := capred.RunTrace(capred.Limit(spec.Open(), events), capred.NewFullTournament(false), 0)
	if err != nil {
		log.Fatal(err)
	}
	if tfinal.Counters != twant {
		log.Fatalf("tournament session counters diverge from offline RunTrace:\nserved  %+v\noffline %+v",
			tfinal.Counters, twant)
	}
	fmt.Printf("\ntournament session: %6.2f%% correct (%d/%d), bit-identical to offline RunTrace\n",
		100*float64(tfinal.Counters.Correct)/float64(tfinal.Counters.Loads),
		tfinal.Counters.Correct, tfinal.Counters.Loads)

	// Every speculative access the session made was attributed to exactly
	// one winning component on /metrics; show where the chooser spent them.
	resp0, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.HasPrefix(line, "capserve_tournament_selected_total{") {
			fmt.Println("  " + line)
		}
	}

	// Now the job queue: submit a registry experiment, poll until done,
	// fetch the rendered table.
	body, _ = json.Marshal(server.JobRequest{Experiment: "baselines"})
	var job jobView
	if err := c.call("POST", base+"/v1/jobs", body, &job); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubmitted job %s (experiment=baselines)\n", job.ID)
	for job.State == "queued" || job.State == "running" {
		time.Sleep(100 * time.Millisecond)
		if err := c.call("GET", base+"/v1/jobs/"+job.ID, nil, &job); err != nil {
			log.Fatal(err)
		}
	}
	if job.State != "done" {
		log.Fatalf("job %s: %s: %s", job.ID, job.State, job.Error)
	}
	fmt.Printf("job finished (%d/%d shards); table:\n\n", job.ShardsDone, job.ShardsTotal)
	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+job.ID+"/table", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	table, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Print(string(table))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver drained cleanly")
}
