// Command capserve is the streaming prediction service: a long-running
// HTTP daemon serving prediction sessions (stream v3 trace bytes at a
// predictor, read running counters bit-identical to an offline RunTrace)
// and an async experiment job queue running the registry experiments on
// the sharded scheduler.
//
// Usage:
//
//	capserve -addr :8080
//	capserve -addr 127.0.0.1:0 -pprof -workers 8
//
// API sketch (see DESIGN.md §11 and README for a walked-through curl
// session):
//
//	GET    /healthz                  liveness; 503 while draining
//	GET    /metrics                  Prometheus text format
//	GET    /v1/predictors            predictor kinds sessions can bind to
//	GET    /v1/experiments           experiment registry
//	POST   /v1/sessions              open a session  {"predictor":"hybrid","gap":8,...}
//	POST   /v1/sessions/{id}/events  one v3-encoded batch; returns counters
//	GET    /v1/sessions/{id}         running counters
//	DELETE /v1/sessions/{id}         drain the gap, final counters
//	POST   /v1/jobs                  {"experiment":"fig5","events":100000}
//	GET    /v1/jobs[/{id}[/table]]   queue, status, rendered table
//
// SIGINT/SIGTERM begin a graceful drain: new sessions and jobs are
// rejected with 429 + Retry-After, in-flight batches and running jobs
// get -drain to complete, then the process exits.
//
// Exit codes: 0 clean drain; 1 serve or shutdown error; 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"capred/internal/buildinfo"
	"capred/internal/server"
)

// run is the testable entry point; it blocks until ctx is cancelled or
// the listener fails, and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := server.DefaultConfig()
	var (
		addr          = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		maxSessions   = fs.Int("max-sessions", def.MaxSessions, "concurrently open prediction sessions (0 = unbounded)")
		sessionTTL    = fs.Duration("session-ttl", def.SessionTTL, "evict sessions idle longer than this (0 = never)")
		sessionEvents = fs.Int64("session-events", def.SessionEventBudget, "event budget per session (0 = unlimited)")
		globalEvents  = fs.Int64("global-events", def.GlobalEventBudget, "event budget across all sessions (0 = unlimited)")
		maxBatch      = fs.Int64("max-batch-bytes", def.MaxBatchBytes, "largest accepted events request body")
		jobEvents     = fs.Int64("job-events", def.JobEvents, "default instructions per trace for jobs")
		workers       = fs.Int("workers", runtime.GOMAXPROCS(0), "default scheduler workers per job; results are bit-identical at any count")
		traceTimeout  = fs.Duration("trace-timeout", def.TraceTimeout, "per-trace deadline inside jobs (0 = none)")
		retries       = fs.Int("retries", def.SourceRetries, "retries for transient trace-source failures in jobs")
		jobQueue      = fs.Int("job-queue", def.JobQueueDepth, "queued-but-not-started job bound")
		jobRunners    = fs.Int("job-runners", def.JobRunners, "jobs executing concurrently")
		cacheBudget   = fs.Int64("cache-budget", def.ReplayCacheBudget>>20, "job replay cache budget in MiB (0 = disabled)")
		pprofOn       = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		drain         = fs.Duration("drain", 30*time.Second, "graceful shutdown window for in-flight work")
		version       = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("capserve"))
		return 0
	}
	cfg := def
	cfg.MaxSessions = *maxSessions
	cfg.SessionTTL = *sessionTTL
	cfg.SessionEventBudget = *sessionEvents
	cfg.GlobalEventBudget = *globalEvents
	cfg.MaxBatchBytes = *maxBatch
	cfg.JobEvents = *jobEvents
	cfg.Workers = *workers
	cfg.TraceTimeout = *traceTimeout
	cfg.SourceRetries = *retries
	cfg.JobQueueDepth = *jobQueue
	cfg.JobRunners = *jobRunners
	cfg.ReplayCacheBudget = *cacheBudget << 20
	cfg.EnablePprof = *pprofOn

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "capserve: listen: %v\n", err)
		return 1
	}
	srv := server.New(cfg)
	// The address line goes to stdout so scripts can scrape the bound
	// port when -addr ends in :0.
	fmt.Fprintf(stdout, "capserve: listening on %s\n", ln.Addr())

	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	select {
	case err := <-served:
		fmt.Fprintf(stderr, "capserve: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stderr, "capserve: draining (up to %s)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "capserve: shutdown: %v\n", err)
		return 1
	}
	<-served // http.ErrServerClosed once Shutdown has run
	fmt.Fprintln(stderr, "capserve: drained cleanly")
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
