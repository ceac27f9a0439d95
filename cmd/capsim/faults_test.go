package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestInjectedFaultsStillPrintTheTable is the acceptance scenario: fig5
// with one decode-error trace and one panicking predictor factory must
// still print the table aggregated from the remaining traces, list both
// failures, and exit non-zero.
func TestInjectedFaultsStillPrintTheTable(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(context.Background(),
		[]string{"-experiment", "fig5", "-events", "10000",
			"-inject", "INT_go=decode,CAD_cat=panic"},
		&out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	table := out.String()
	if !strings.Contains(table, "Fig. 5") && !strings.Contains(table, "fig") && !strings.Contains(table, "suite") {
		t.Errorf("table not printed:\n%s", table)
	}
	if !strings.Contains(table, "WARNING") {
		t.Errorf("partial-results footer missing:\n%s", table)
	}
	diag := errOut.String()
	for _, want := range []string{"INT_go", "CAD_cat", "panic", "trace run(s) failed"} {
		if !strings.Contains(diag, want) {
			t.Errorf("stderr missing %q:\n%s", want, diag)
		}
	}
	if !strings.Contains(diag, "stack:") {
		t.Errorf("panic stack not reported:\n%s", diag)
	}
}

func TestCommaSeparatedExperimentsContinuePastFailures(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(context.Background(),
		[]string{"-experiment", "fig9,fig10", "-events", "5000",
			"-inject", "INT_go=truncate"},
		&out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	// Both experiments must have produced their table despite the
	// failures in the first.
	if got := strings.Count(out.String(), "history"); got == 0 {
		t.Errorf("fig9 table missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "tag") {
		t.Errorf("fig10 table missing:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "failures in: fig10, fig9") {
		t.Errorf("final failure summary missing:\n%s", errOut.String())
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-experiment", "nope"},
		{},
		{"-experiment", "fig5", "-inject", "INT_go"},
		{"-experiment", "fig5", "-inject", "INT_go=meteor"},
		{"-experiment", ","},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2", args, code)
		}
	}
}

func TestListExperiments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit code = %d", code)
	}
	for _, n := range names() {
		if !strings.Contains(out.String(), n) {
			t.Errorf("-list output missing %q", n)
		}
	}
}

// TestSIGINTProducesPartialOutput drives the real signal path: a SIGINT
// mid-run cancels the in-flight traces, the completed portion is still
// printed, and the exit code is non-zero.
func TestSIGINTProducesPartialOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("signal integration")
	}
	// The same NotifyContext main() installs; while registered it also
	// keeps the default SIGINT handler from killing the test binary.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT)
	defer stop()

	var out, errOut bytes.Buffer
	done := make(chan int, 1)
	go func() {
		// A budget large enough that the run is still in flight when the
		// signal lands.
		done <- run(ctx, []string{"-experiment", "fig5", "-events", "100000000"}, &out, &errOut)
	}()

	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	select {
	case code := <-done:
		if code != 1 {
			t.Errorf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not stop after SIGINT")
	}
	if !strings.Contains(errOut.String(), "interrupted") {
		t.Errorf("stderr should report the interruption:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "WARNING") {
		t.Errorf("partial table with failure footer should still print:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "context canceled") {
		t.Errorf("failures should carry the cancellation cause:\n%s", errOut.String())
	}
}

var updateInject = flag.Bool("update", false,
	"rewrite testdata/inject.golden from this run's serial output")

// TestInjectedFaultsGolden pins every experiment's table and failure
// footer under one decode-error trace and one panicking predictor
// factory, byte for byte, on the serial path and on four workers.
// Regenerate with:
//
//	go test ./cmd/capsim -run TestInjectedFaultsGolden -update
func TestInjectedFaultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep, twice")
	}
	path := filepath.Join("testdata", "inject.golden")
	for _, workers := range []string{"1", "4"} {
		var out, errOut bytes.Buffer
		code := run(context.Background(),
			[]string{"-experiment", "all", "-events", "2000", "-workers", workers,
				"-inject", "INT_go=panic,CAD_cat=decode"},
			&out, &errOut)
		if code != 1 {
			t.Fatalf("workers=%s: exit code = %d, want 1", workers, code)
		}
		if *updateInject && workers == "1" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if got := out.String(); got != string(want) {
			t.Errorf("workers=%s: stdout drifted from %s\n--- got ---\n%s\n--- want ---\n%s",
				workers, path, got, want)
		}
	}
}
