// Command capsim runs the paper's experiments and prints their tables.
//
// Usage:
//
//	capsim -experiment fig5 [-events N] [-workers N]
//	capsim -experiment fig5,fig7,baselines
//	capsim -experiment all
//	capsim -list
//
// By default each trace stream is materialised once into a compact
// in-memory encoding and replayed across every experiment pass
// (-replay-cache=false restores live regeneration; -cache-budget caps
// the cache in MiB, -cache-stats reports its hit counts on exit).
// Cached replay is bit-identical to regeneration, so results do not
// depend on the flag.
//
// Experiments: fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 update-policy
// lt-size baselines control ablations profile-assist addr-vs-value
// prefetch classes wrong-path tournament.
//
// Trace failures (decode errors, predictor panics, cancellation) do not
// abort a sweep: the affected trace is dropped from the aggregates, the
// table is printed from the survivors with a failure footer, and capsim
// exits non-zero. SIGINT/SIGTERM cancel the in-flight traces; whatever
// completed is still printed.
//
// Exit codes: 0 all experiments clean; 1 at least one trace run or
// experiment failed (including cancellation); 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"capred"
	"capred/internal/buildinfo"
)

// names lists the registered experiment names, sorted.
func names() []string {
	exps := capred.Experiments()
	out := make([]string, 0, len(exps))
	for _, e := range exps {
		out = append(out, e.Name)
	}
	return out
}

// parseInjections parses the -inject spec ("trace=mode,trace=mode") and
// installs the matching fault wrappers on the config. Modes: decode (the
// source fails mid-trace with a decode error), truncate (the source fails
// on the first event), panic (the predictor factory panics).
func parseInjections(cfg *capred.ExperimentConfig, spec string) error {
	srcMode := map[string]string{}
	panicTraces := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, mode, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("bad -inject entry %q (want trace=mode)", part)
		}
		switch mode {
		case "decode", "truncate":
			srcMode[name] = mode
		case "panic":
			panicTraces[name] = true
		default:
			return fmt.Errorf("bad -inject mode %q (want decode, truncate or panic)", mode)
		}
	}
	if len(srcMode) > 0 {
		cfg.WrapSource = func(name string, src capred.Source) capred.Source {
			switch srcMode[name] {
			case "decode":
				return capred.NewFailAfter(src, 1000, fmt.Errorf("injected decode error: %w", capred.ErrInjected))
			case "truncate":
				return capred.NewErrSource(fmt.Errorf("injected truncation: %w", capred.ErrInjected))
			}
			return src
		}
	}
	if len(panicTraces) > 0 {
		cfg.WrapFactory = func(name string, f capred.Factory) capred.Factory {
			if !panicTraces[name] {
				return f
			}
			return func() capred.Predictor { panic("injected predictor panic for " + name) }
		}
	}
	return nil
}

// reportFailures prints an experiment's failure summary to stderr,
// including recovered panic stacks.
func reportFailures(stderr io.Writer, name string, fails []capred.TraceFailure) {
	fmt.Fprintf(stderr, "capsim: experiment %s: %d trace run(s) failed\n", name, len(fails))
	for _, f := range fails {
		fmt.Fprintf(stderr, "  %s\n", f.String())
		var pe *capred.PanicError
		if errors.As(f.Err, &pe) && len(pe.Stack) > 0 {
			fmt.Fprintf(stderr, "    stack:\n")
			for _, line := range strings.Split(strings.TrimRight(string(pe.Stack), "\n"), "\n") {
				fmt.Fprintf(stderr, "    %s\n", line)
			}
		}
	}
}

// run is the testable entry point: parses args, runs the selected
// experiments, and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("experiment", "", "comma-separated experiments to run (or 'all')")
		events   = fs.Int64("events", 400_000, "instructions per trace")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines sharding each experiment's (trace, config) grid; 1 = serial")
		retries  = fs.Int("retries", 0, "retries for transient trace-source failures")
		inject   = fs.String("inject", "", "fault injection: trace=mode[,trace=mode] (modes: decode, truncate, panic)")
		useCache = fs.Bool("replay-cache", true, "materialise each trace once and replay it across experiments")
		budget   = fs.Int64("cache-budget", 512, "replay cache budget in MiB (0 = unlimited)")
		cacheLog = fs.Bool("cache-stats", false, "print replay cache statistics to stderr on exit")
		list     = fs.Bool("list", false, "list available experiments")
		version  = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *version {
		fmt.Fprintln(stdout, buildinfo.String("capsim"))
		return 0
	}
	if *list {
		for _, e := range capred.Experiments() {
			fmt.Fprintf(stdout, "%-14s %s\n", e.Name, e.Desc)
		}
		return 0
	}
	if *events <= 0 {
		fmt.Fprintf(stderr, "capsim: -events must be positive, got %d\n", *events)
		return 2
	}

	cfg := capred.ExperimentConfig{
		EventsPerTrace: *events,
		Workers:        *workers,
		SourceRetries:  *retries,
		Ctx:            ctx,
	}
	if *useCache {
		cfg.ReplayCache = capred.NewReplayCache(*budget << 20)
	}
	if err := parseInjections(&cfg, *inject); err != nil {
		fmt.Fprintf(stderr, "capsim: %v\n", err)
		return 2
	}

	var selected []string
	switch {
	case *exp == "all":
		selected = names()
	case *exp != "":
		for _, n := range strings.Split(*exp, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, ok := capred.ExperimentByName(n); !ok {
				fmt.Fprintf(stderr, "capsim: unknown experiment %q; use -list\n", n)
				return 2
			}
			selected = append(selected, n)
		}
		if len(selected) == 0 {
			fmt.Fprintln(stderr, "capsim: -experiment list is empty; use -list to enumerate")
			return 2
		}
	default:
		fmt.Fprintln(stderr, "capsim: -experiment required; use -list to enumerate")
		return 2
	}

	// Run every selected experiment even when earlier ones fail; report
	// all failures at the end and exit non-zero if any occurred.
	failed := map[string]int{}
	for _, n := range selected {
		e, _ := capred.ExperimentByName(n)
		r := e.Run(cfg)
		fmt.Fprintln(stdout, r.Table())
		fails := r.Failed()
		if len(fails) > 0 {
			failed[n] = len(fails)
			reportFailures(stderr, n, fails)
		}
		if err := ctx.Err(); err != nil {
			// Cancelled: the tables so far are printed; stop starting new
			// experiments.
			fmt.Fprintf(stderr, "capsim: interrupted (%v); printed partial results\n", err)
			break
		}
	}
	if *cacheLog && cfg.ReplayCache != nil {
		fmt.Fprintf(stderr, "capsim: %s\n", cfg.ReplayCache.Stats())
	}
	if len(failed) > 0 || ctx.Err() != nil {
		if len(failed) > 0 {
			keys := make([]string, 0, len(failed))
			for n := range failed {
				keys = append(keys, n)
			}
			sort.Strings(keys)
			fmt.Fprintf(stderr, "capsim: failures in: %s\n", strings.Join(keys, ", "))
		}
		return 1
	}
	return 0
}

func main() {
	// SIGINT/SIGTERM cancel in-flight traces; experiments then return
	// partial results which run prints before exiting non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
