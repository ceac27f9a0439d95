// Command capbench is capred's benchmark. One run measures one
// workload for a fixed number of seconds, checks that the program's
// outputs are correct, and prints every metric by name and unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 44, "failed": 0, "metrics": {"op_p50_ms": {"value": 1712.5, "unit": "ms"}, ...}}
//
// Usage, from the repository root (see README.md):
//
//	bash capbench/run.sh --workload sweep-predict --seed 1 --seconds 35 --trace 0
//	bash capbench/run.sh --workload all --seed 1 --seconds 35 --trace 0 --out result.json
//	bash capbench/run.sh --workload sweep-timing --seed 1 --seconds 35 --trace 1 --spans spans.json
//
// With --trace 0 the run reports the end-to-end metrics, with tracing
// off. With --trace 1 it is a separate traced run that reports the
// per-layer ledger: isolated costs of each module over a seed-sampled
// set of traces, plus metrics of the workload's own span tree.
//
// Exit codes: 0 clean or -h, 1 a correctness failure (the result line
// still prints, with "correct": false), 2 usage or set-up error (no
// result line).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef declares one metric's name and unit. The lists below must
// match BENCHMARK.json; the contract test holds them together.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of capred waits for or pays, reported with
// tracing off on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"mev_per_s", "Mev/s"},
	{"peak_rss_mib", "MiB"},
}

// layerMetrics are the traced run's per-layer numbers, reported on
// every workload: the isolated module ledger (ledger.go) and the
// workload's own span tree (span.go).
var layerMetrics = []metricDef{
	{"workload.gen_ns_per_event", "ns"},
	{"trace.materialise_ns_per_event", "ns"},
	{"trace.warm_ns_per_event", "ns"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.resident_bytes_per_event", "bytes"},
	{"predictor.last.ns_per_load", "ns"},
	{"predictor.stride.ns_per_load", "ns"},
	{"predictor.cap.ns_per_load", "ns"},
	{"predictor.hybrid.ns_per_load", "ns"},
	{"predictor.last.allocs_per_load", "count"},
	{"predictor.stride.allocs_per_load", "count"},
	{"predictor.cap.allocs_per_load", "count"},
	{"predictor.hybrid.allocs_per_load", "count"},
	{"predictor.hybrid.correct_spec_frac", "frac"},
	{"pipeline.gap8_ns_per_load", "ns"},
	{"tournament.full.ns_per_load", "ns"},
	{"tournament.full_gap8.ns_per_load", "ns"},
	{"tournament.vs_hybrid", "ratio"},
	{"cpu.run_nopred_ns_per_event", "ns"},
	{"cpu.run_hybrid_ns_per_event", "ns"},
	{"cpu.ipc", "ratio"},
	{"memsys.access_ns", "ns"},
	{"memsys.l1_hit_rate", "frac"},
	{"prefetch.rpt_ns_per_load", "ns"},
	{"server.handler_p50_us", "us"},
	{"server.handler_p99_us", "us"},
	{"server.open_p50_us", "us"},
	{"span.unit_p50_ms", "ms"},
	{"span.unit_p99_ms", "ms"},
	{"span.unit_max_ms", "ms"},
	{"span.unattributed_frac", "frac"},
	{"span.tail_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// workloadDef is one named workload. Why each exists is in README.md
// and BENCHMARK.json.
type workloadDef struct {
	name string
	run  func(*bench) error
}

var workloads = []workloadDef{
	{"sweep-predict", sweepWorkload([]string{"baselines", "fig9", "fig11", "tournament"})},
	{"sweep-timing", sweepWorkload([]string{"fig7", "fig12", "prefetch"})},
	{"serve-mixed", serveWorkload},
}

// options are the command-line settings of one run.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	events     int64
	spans      string
	out        string
	cpuprofile string
	memprofile string
}

// bench is the state of one workload run: the settings, the tracer
// (nil with tracing off), the operation ledger and the metrics.
type bench struct {
	options
	ctx   context.Context // carries the run's pprof labels
	tr    *tracer
	root  openSpan
	spent time.Duration // measuring time the traced run's ledger used

	attempted atomic.Int64
	failed    atomic.Int64

	metrics map[string]sample // by metric name; a per-layer line is one value
	notes   map[string]any
}

func newBench(o options) *bench {
	return &bench{
		options: o,
		ctx:     pprof.WithLabels(context.Background(), pprof.Labels("workload", o.workload)),
		metrics: make(map[string]sample),
		notes:   make(map[string]any),
	}
}

// budget is the measuring time of the run.
func (b *bench) budget() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	fmt.Fprintf(os.Stderr, "capbench: %s: FAIL: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// labelled runs fn under the run's pprof labels plus extra ones;
// goroutines fn starts, such as the sim scheduler's workers, inherit
// them.
func (b *bench) labelled(fn func(), kv ...string) {
	pprof.Do(b.ctx, pprof.Labels(kv...), func(context.Context) { fn() })
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reportMetric is one metric in the --out report, with its spread.
type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

// report is the --out document: the result plus the spread of each
// metric, workload notes and the host it was measured on.
type report struct {
	Workload  string                  `json:"workload"`
	Host      map[string]any          `json:"host"`
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
	Notes     map[string]any          `json:"notes,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the serve schedule and the ledger's trace sample")
	fs.Float64Var(&o.seconds, "seconds", 35, "measuring time of the run, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.Int64Var(&o.events, "events", 100_000, "events per trace for the sweeps and the ledger (held-out check: 300000)")
	fs.StringVar(&o.spans, "spans", "", "where the traced run writes its spans (default .bench_build/spans-<workload>.json)")
	fs.StringVar(&o.out, "out", "", "also write the full report (spread of every metric, host metadata) to this JSON file")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile, labelled by workload, experiment and layer")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile at the end of the run")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 || o.events <= 0 {
		fmt.Fprintln(os.Stderr, "capbench: -trace must be 0 or 1, -seconds and -events positive")
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "capbench: unknown workload %q (one of %s, all)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capbench: %s: %v\n", o.workload, err)
		return 2
	}
	return emit(rep, o.out, stdout)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runWorkload runs one workload in this process and builds its report.
func runWorkload(w workloadDef, o options) (*report, error) {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	b := newBench(o)
	if o.trace {
		b.tr = newTracer()
		b.root = b.tr.open(0, "workload")
	}
	pprof.SetGoroutineLabels(b.ctx)
	defer pprof.SetGoroutineLabels(context.Background())
	if o.trace {
		t0 := time.Now()
		if err := runLedger(b); err != nil {
			return nil, err
		}
		b.spent = time.Since(t0)
	}
	if err := w.run(b); err != nil {
		return nil, err
	}
	wanted := e2eMetrics
	if o.trace {
		wanted = layerMetrics
		b.root.end(map[string]any{"workload": w.name, "seed": o.seed})
		spans := b.tr.snapshot()
		if msg := checkNesting(spans); msg != "" {
			b.fail("span tree: %s", msg)
		}
		path := o.spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.name+".json")
		}
		if err := writeJSON(path, map[string]any{"spans": spans}); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		b.notes["spans"] = path
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		b.metrics["peak_rss_mib"] = sample{rss}
	}
	if o.memprofile != "" {
		if err := writeHeapProfile(o.memprofile); err != nil {
			return nil, err
		}
	}
	rep := &report{
		Workload:  w.name,
		Host:      hostInfo(o),
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   make(map[string]reportMetric),
		Notes:     b.notes,
	}
	rep.Correct = rep.Failed == 0
	for _, d := range wanted {
		s, ok := b.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rm := reportMetric{Unit: d.unit, summary: s.summary()}
		rm.Value = rm.Median
		if math.IsNaN(rm.Value) || math.IsInf(rm.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", d.name)
		}
		rep.Metrics[d.name] = rm
	}
	if rep.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return rep, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emit prints the human-readable summary and the result line, writes
// the --out report, and returns the exit code.
func emit(rep *report, out string, stdout io.Writer) int {
	fmt.Fprintf(stdout, "# %s seed=%v events=%v nproc=%v gomaxprocs=%v go=%v commit=%v cpu=%q\n",
		rep.Workload, rep.Host["seed"], rep.Host["events"], rep.Host["nproc"], rep.Host["gomaxprocs"],
		rep.Host["go"], rep.Host["commit"], rep.Host["cpu_model"])
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metric)}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		spread := ""
		if m.N > 1 {
			spread = fmt.Sprintf(" q1=%.6g q3=%.6g n=%d", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %s%s\n", name, m.Value, m.Unit, spread)
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	for _, k := range sortedKeys(rep.Notes) {
		fmt.Fprintf(stdout, "# %s: %v\n", k, rep.Notes[k])
	}
	fmt.Fprintf(stdout, "# ops attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "capbench: writing report:", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// writeJSON writes v as an indented JSON file, creating its directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runAll runs every workload, each in its own child process so that
// each reports its own peak RSS, and merges their results: the last
// line names each metric <workload>.<metric>.
func runAll(o options, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "capbench:", err)
		return 2
	}
	merged := result{Correct: true, Metrics: make(map[string]metric)}
	reports := make(map[string]*report)
	code := 0
	for _, w := range workloads {
		args := []string{
			"--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"--trace", map[bool]string{false: "0", true: "1"}[o.trace],
			"--events", strconv.FormatInt(o.events, 10),
		}
		var childOut string
		if o.out != "" {
			childOut = o.out + "." + w.name
			args = append(args, "--out", childOut)
		}
		if o.trace && o.spans != "" {
			args = append(args, "--spans", strings.TrimSuffix(o.spans, ".json")+"-"+w.name+".json")
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, err := lastResult(buf.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "capbench: %s: %v (%v)\n", w.name, err, runErr)
			return 2
		}
		if runErr != nil {
			code = 1
		}
		merged.Correct = merged.Correct && res.Correct
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		for k, v := range res.Metrics {
			merged.Metrics[w.name+"."+k] = v
		}
		if childOut != "" {
			var rep report
			data, err := os.ReadFile(childOut)
			if err == nil {
				err = json.Unmarshal(data, &rep)
			}
			if err == nil {
				err = os.Remove(childOut)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "capbench:", err)
				return 2
			}
			reports[w.name] = &rep
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, map[string]any{"host": hostInfo(o), "workloads": reports}); err != nil {
			fmt.Fprintln(os.Stderr, "capbench: writing report:", err)
			return 2
		}
	}
	line, err := json.Marshal(merged)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// lastResult parses the result line a run printed last.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// hostInfo records where and how a result was measured.
func hostInfo(o options) map[string]any {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
	}
	commit += dirty
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       o.seed,
		"events":     o.events,
		"seconds":    o.seconds,
		"traced":     o.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
