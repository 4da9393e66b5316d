package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
)

// smallSizes run every generator in well under a second per program.
var smallSizes = sizes{
	Walkers: 2, Laps: 6, Callers: 2, Calls: 5,
	Services: 3, Sessions: 2, Requests: 8,
	Outer: 5, Inner: 7,
}

// TestExpectationsMatchInterpreter checks each generator's Go-side
// expected lines against the single-node AST interpreter, which shares no
// code with the compiler, emulators or kernel the benchmark measures.
func TestExpectationsMatchInterpreter(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []uint64{1, 2, 3} {
			w, err := Generate(name, seed, smallSizes)
			if err != nil {
				t.Fatal(err)
			}
			info, _, err := core.CompileInfo(w.Src)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			src := interp.NewSource(info)
			src.Run()
			if len(src.RT().Faults) > 0 {
				t.Fatalf("%s seed %d: interpreter faults: %v", name, seed, src.RT().Faults)
			}
			got := append([]string(nil), src.RT().Output...)
			want := append([]string(nil), w.Expect...)
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s seed %d:\ninterpreter %q\nexpected    %q", name, seed, got, want)
			}
		}
	}
}

// TestSeedDeterminesWorkload pins the contract that the seed alone decides
// the program: same seed, same source; another seed, another source.
func TestSeedDeterminesWorkload(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := Generate(name, 5, smallSizes)
		b, _ := Generate(name, 5, smallSizes)
		c, _ := Generate(name, 6, smallSizes)
		if a.Src != b.Src || !slices.Equal(a.Expect, b.Expect) {
			t.Errorf("%s: seed 5 generated two different workloads", name)
		}
		if a.Src == c.Src {
			t.Errorf("%s: seeds 5 and 6 generated the same source", name)
		}
	}
}

// TestCleanWorkloadsPass runs the gated workloads through the kernel once
// untraced and once traced: no operation fails and the two executions are
// identical.
func TestCleanWorkloadsPass(t *testing.T) {
	for _, name := range []string{"tour", "services", "compute"} {
		w, err := Generate(name, 1, smallSizes)
		if err != nil {
			t.Fatal(err)
		}
		budget, err := calibrate(w)
		if err != nil {
			t.Fatal(err)
		}
		u, err := execute(w, budget)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := executeTraced(w, budget, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		if u.failed != 0 || tr.failed != 0 {
			t.Errorf("%s: %d and %d operations failed: %s%s", name, u.failed, tr.failed, u.firstFailure, tr.firstFailure)
		}
		if u.fingerprint != tr.fingerprint {
			t.Errorf("%s: traced execution differs from untraced", name)
		}
	}
}

// TestCheckCountsFailures covers the oracle: a missing line, and an
// exhausted event budget, each count as failed operations.
func TestCheckCountsFailures(t *testing.T) {
	w, _ := Generate("tour", 1, smallSizes)
	cl, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if failed, why := check(w, cl, nil); failed != 0 {
		t.Fatalf("clean run: %d failed: %s", failed, why)
	}
	wrong := *w
	wrong.Expect = append(slices.Clone(w.Expect[1:]), "walker 0 r=-1")
	if failed, _ := check(&wrong, cl, nil); failed != 1 {
		t.Errorf("one wrong line: %d failed, want 1", failed)
	}

	cl, err = w.setup()
	if err != nil {
		t.Fatal(err)
	}
	runErr := cl.Run(100)
	if runErr == nil {
		t.Fatal("a 100-event budget did not run out")
	}
	if failed, _ := check(w, cl, runErr); failed != len(w.Expect) {
		t.Errorf("exhausted budget: %d failed, want all %d", failed, len(w.Expect))
	}
}

// TestProfileAttribution profiles a labelled compute execution and checks
// the decoder attributes its samples to the emulator.
func TestProfileAttribution(t *testing.T) {
	w, _ := Generate("compute", 1, sizes{Outer: 100, Inner: 300})
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := executeTraced(w, 50_000_000, &tracer{}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	self := p.attribute(runLabel, "run")
	// Samples with no repository frame ("other") are left out: under the
	// race detector most samples land in its runtime.
	var total int64
	for layer, ns := range self {
		if layer != "other" && !strings.Contains(layer, ".") {
			total += ns
		}
	}
	if total == 0 {
		t.Fatalf("no labelled samples in repository code: %v", self)
	}
	if self["arch"]*2 < total {
		t.Errorf("emulator holds %d of %d ns of repository code on a compute-bound run: %v", self["arch"], total, self)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		fn, file, layer, sub string
	}{
		{"repro/internal/kernel.(*Node).alloc", "/x/internal/kernel/node.go", "kernel", ""},
		{"repro/internal/kernel.(*Node).moveObj", "/x/internal/kernel/migrate.go", "kernel", "kernel.migrate"},
		{"repro/internal/kernel.(*Node).autoView.func1", "/x/internal/kernel/auto.go", "auto", ""},
		{"repro/internal/kernel.(*Node).retransmit", "/x/internal/kernel/rlink.go", "chaos", ""},
		{"repro/internal/lang/parser.(*parser).expr", "/x/internal/lang/parser/parser.go", "lang", ""},
		{"repro/internal/auto/workgen.Generate", "/x/internal/auto/workgen/workgen.go", "auto", ""},
		{"runtime.memclrNoHeapPointers", "/go/src/runtime/memclr.s", "", ""},
	} {
		layer, sub := layerOf(profFunc{name: c.fn, file: c.file})
		if layer != c.layer || sub != c.sub {
			t.Errorf("%s: got %q/%q, want %q/%q", c.fn, layer, sub, c.layer, c.sub)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step: same names, same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, wl := range doc.Workloads {
		if !slices.Contains(workloadNames, wl.Name) {
			t.Errorf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
	}
	r, err := measure("tour", 1, 0.01, true, t.TempDir(), smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	recordedPerLayer := map[string]bool{}
	for _, m := range r.layers {
		units[m.Name] = m.Unit
		recordedPerLayer[m.Name] = !tableOnly[m.Name]
	}
	for _, m := range r.endToEnd() {
		units[m.Name] = m.Unit
	}
	seen := map[string]bool{}
	for _, m := range doc.EndToEnd {
		seen[m.Name] = true
		if !recordedEndToEnd[m.Name] || units[m.Name] != m.Unit {
			t.Errorf("end_to_end %s [%s]: program reports %v [%s]", m.Name, m.Unit, recordedEndToEnd[m.Name], units[m.Name])
		}
	}
	for _, m := range doc.PerLayer {
		seen[m.Name] = true
		if !recordedPerLayer[m.Name] || units[m.Name] != m.Unit {
			t.Errorf("per_layer %s [%s]: program reports %v [%s]", m.Name, m.Unit, recordedPerLayer[m.Name], units[m.Name])
		}
	}
	for name := range recordedEndToEnd {
		if !seen[name] {
			t.Errorf("end-to-end metric %s missing from BENCHMARK.json", name)
		}
	}
	for name, recorded := range recordedPerLayer {
		if recorded && !seen[name] {
			t.Errorf("per-layer metric %s missing from BENCHMARK.json", name)
		}
	}
}
