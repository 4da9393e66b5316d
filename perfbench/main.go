// Command perfbench is the repository's benchmark. It generates a workload
// from a seed, runs the generated program to quiescence on the sequential
// engine over and over for a fixed time, checks every output against the
// generator's expected results, and prints the end-to-end metrics (with
// tracing off) or the per-layer metrics (from a traced run).
//
//	perfbench --workload tour|services|compute|faulty|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. NOTES.md records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// minExecutions is the fewest program executions a phase makes, however
// short the run.
const minExecutions = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's program and fault plan are generated from")
	seconds := fs.Float64("seconds", 10, "how long each workload is measured, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its Chrome trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if *workload == "" || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	var reports []*report
	for _, name := range names {
		r, err := measure(name, *seed, *seconds, *trace == 1, *out, benchSizes)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		reports = append(reports, r)
	}
	if *trace == 1 {
		for _, r := range reports {
			printLayers(stdout, r)
		}
	} else {
		printEndToEnd(stdout, reports)
	}
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reports {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Correct = res.Correct && r.failed == 0 && r.nondeterministic == 0
		ms := r.endToEnd()
		if *trace == 1 {
			ms = r.layers
		}
		for _, m := range ms {
			if *trace == 1 && tableOnly[m.Name] {
				continue
			}
			if *trace == 0 && !recordedEndToEnd[m.Name] {
				continue
			}
			key := m.Name
			if len(reports) > 1 {
				key = r.w.Name + "." + key
			}
			res.Metrics[key] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// recordedEndToEnd are the end-to-end metrics the JSON result carries: the
// host metrics, whose spread needs bounding. The simulated metrics repeat
// exactly for a seed and are checked by the determinism guard instead; the
// fail rate is failed/attempted.
var recordedEndToEnd = map[string]bool{
	"setup_s": true, "host_run_s": true, "host_alloc_mb": true, "host_live_heap_mb": true,
}

// tableOnly are the per-layer metrics the per-layer table prints but the
// JSON result leaves out: ratios over counts that can be zero, simulated
// phase medians over migrations a workload may not make, profile self
// times of layers a workload may leave idle, and Start, which takes a few
// microseconds of CPU, the resolution of the clock. On some workload each
// has no value, or can read the same on every run.
var tableOnly = map[string]bool{
	"pta.facts_s":                true,
	"kernel.start_s":             true,
	"kernel.migrate.self_s":      true,
	"kernel.invoke.self_s":       true,
	"kernel.move_convout_ms_p50": true,
	"kernel.move_respec_ms_p50":  true,
	"wire.self_s":                true,
	"wire.conv_calls_per_move":   true,
	"wire.move_bytes_per_move":   true,
	"wire.move_wire_ms_p50":      true,
	"dir.self_s":                 true,
	"dir.bytes_per_decree":       true,
	"dir.lease_hit_ratio":        true,
	"auto.self_s":                true,
	"auto.bytes_per_moved_obj":   true,
	"chaos.self_s":               true,
	"obs.self_s":                 true,
	"runtime.gc_self_s":          true,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report is one workload's measurement.
type report struct {
	w                *Workload
	seed             uint64
	attempted        int
	failed           int
	firstFailure     string
	nondeterministic int // executions that differed from the first
	ref              *[32]byte
	refCounts        counts
	untraced, traced []*execution
	layers           []metric
	tracePath        string
}

// add records one execution: its operations, its failures and whether it
// reproduced the first execution of the seed exactly.
func (r *report) add(e *execution) {
	r.attempted += len(r.w.Expect)
	r.failed += e.failed
	if e.failed > 0 && r.firstFailure == "" {
		r.firstFailure = e.firstFailure
	}
	if r.ref == nil {
		r.ref = &e.fingerprint
	}
	if e.counts != nil && r.refCounts == nil {
		r.refCounts = e.counts
	}
	if e.fingerprint != *r.ref || (e.counts != nil && !maps.Equal(e.counts, r.refCounts)) {
		r.nondeterministic++
	}
}

// measure runs one workload for the given time. Untraced, every execution
// counts toward the end-to-end metrics. Traced, the first half of the time
// runs untraced (the baseline for obs.trace_overhead) and the second half
// traced under the CPU profiler.
func measure(name string, seed uint64, seconds float64, traced bool, outDir string, sz sizes) (*report, error) {
	w, err := Generate(name, seed, sz)
	if err != nil {
		return nil, err
	}
	budget, err := calibrate(w)
	if err != nil {
		return nil, err
	}
	r := &report{w: w, seed: seed}
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	untracedEnd := end
	if traced {
		untracedEnd = start.Add(end.Sub(start) / 2)
	}
	for len(r.untraced) < minExecutions || time.Now().Before(untracedEnd) {
		e, err := execute(w, budget)
		if err != nil {
			return nil, err
		}
		r.add(e)
		r.untraced = append(r.untraced, e)
	}
	if !traced {
		return r, nil
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tr := &tracer{origin: time.Now()}
	for len(r.traced) < minExecutions || time.Now().Before(end) {
		tr.iter = len(r.traced)
		e, err := executeTraced(w, budget, tr)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		r.add(e)
		r.traced = append(r.traced, e)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	cpu := func(e *execution) float64 { return e.setupS + e.runS }
	r.layers = perLayer(layerInputs{
		w: w, traced: r.traced, counts: r.refCounts,
		selfNanos: p.attribute(runLabel, "run"),
		overhead:  medianOf(r.traced, cpu)/medianOf(r.untraced, cpu) - 1,
	})
	r.tracePath = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := writeSpans(r.tracePath, tr.spans); err != nil {
		return nil, err
	}
	return r, nil
}

// endToEnd computes the end-to-end metrics from the untraced executions.
func (r *report) endToEnd() []metric {
	u := r.untraced
	first := u[0]
	out := []metric{
		{Name: "setup_s", Unit: "s", Value: medianOf(u, func(e *execution) float64 { return e.setupS })},
		{Name: "host_run_s", Unit: "s", Value: medianOf(u, func(e *execution) float64 { return e.runS })},
		{Name: "host_alloc_mb", Unit: "MiB", Value: medianOf(u, func(e *execution) float64 { return e.allocMB })},
		{Name: "host_live_heap_mb", Unit: "MiB", Value: medianOf(u, func(e *execution) float64 { return e.liveMB })},
		{Name: "sim_s", Unit: "sim_s", Value: first.simS},
	}
	hops := len(first.hops)
	p50 := metric{Name: "sim_move_ms_p50", Unit: "sim_ms", NA: "no migrations"}
	p99 := metric{Name: "sim_move_ms_p99", Unit: "sim_ms"}
	if hops > 0 {
		p50.Value, p50.NA = percentile(first.hops, 0.5)/1000, ""
	}
	// A percentile is reported only with at least ten samples beyond it.
	if hops-rankOf(hops, 0.99) >= 10 {
		p99.Value = percentile(first.hops, 0.99) / 1000
	} else {
		p99.NA = fmt.Sprintf("%d hops", hops)
	}
	rate := float64(r.failed) / float64(r.attempted)
	return append(out, p50, p99, metric{Name: "fail_rate", Unit: "ratio", Value: rate})
}

// printEndToEnd prints one row per workload.
func printEndToEnd(w io.Writer, reports []*report) {
	header := []string{"workload", "execs"}
	for _, m := range reports[0].endToEnd() {
		header = append(header, fmt.Sprintf("%s[%s]", m.Name, m.Unit))
	}
	rows := [][]string{header}
	for _, r := range reports {
		row := []string{r.w.Name, fmt.Sprint(len(r.untraced))}
		for _, m := range r.endToEnd() {
			row = append(row, formatValue(m))
		}
		rows = append(rows, row)
	}
	printTable(w, rows)
	for _, r := range reports {
		printChecks(w, r)
	}
}

// printLayers prints one workload's per-layer table.
func printLayers(w io.Writer, r *report) {
	fmt.Fprintf(w, "per-layer metrics: workload=%s seed=%d traced executions=%d untraced=%d trace=%s\n",
		r.w.Name, r.seed, len(r.traced), len(r.untraced), r.tracePath)
	rows := [][]string{{"metric", "value", "unit"}}
	for _, m := range r.layers {
		rows = append(rows, []string{m.Name, formatValue(m), m.Unit})
	}
	printTable(w, rows)
	printChecks(w, r)
}

// printChecks reports the oracle's and the determinism guard's findings.
func printChecks(w io.Writer, r *report) {
	if r.failed > 0 {
		fmt.Fprintf(w, "%s: %d of %d operations failed; first: %s\n", r.w.Name, r.failed, r.attempted, r.firstFailure)
	}
	n := len(r.untraced) + len(r.traced)
	if r.nondeterministic > 0 {
		fmt.Fprintf(w, "%s: %d of %d executions did not reproduce the seed's first execution exactly\n", r.w.Name, r.nondeterministic, n)
	} else {
		fmt.Fprintf(w, "%s: all %d executions reproduced the seed's first exactly (output, simulated metrics, counts)\n", r.w.Name, n)
	}
}

func formatValue(m metric) string {
	if m.NA != "" {
		return "n/a (" + m.NA + ")"
	}
	return fmt.Sprintf("%.6g", m.Value)
}

// printTable prints rows with left-aligned, padded columns.
func printTable(w io.Writer, rows [][]string) {
	width := map[int]int{}
	for _, row := range rows {
		for i, c := range row {
			width[i] = max(width[i], len(c))
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(row)-1 {
				b.WriteString(c)
			} else {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			}
		}
		fmt.Fprintln(w, b.String())
	}
}

// writeSpans writes the traced run's benchmark-side spans as a Chrome
// trace: one complete event per span, one thread row per execution.
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
	}{}
	for _, s := range spans {
		e := event{Name: s.name, Ph: "X", Ts: float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3, Pid: 1, Tid: s.iter,
			Args: map[string]any{"cpu_us": float64(s.cpu.Nanoseconds()) / 1e3}}
		if s.parent != "" {
			e.Args["parent"] = s.parent
		}
		doc.TraceEvents = append(doc.TraceEvents, e)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
