package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
	"repro/internal/obs"
)

// budgetFactor sizes a workload's event budget from its clean event count:
// a clean program never needs more, and a livelocked one stops there as a
// counted failure instead of running to the kernel's 50 M-event default.
const budgetFactor = 10

// execution is what one program execution leaves behind.
type execution struct {
	setupS, runS    float64 // host CPU seconds of the simulation thread
	allocMB, liveMB float64 // untraced executions only
	failed          int
	firstFailure    string
	fingerprint     [32]byte
	simS            float64
	hops            []int64      // simulated µs of each completed migration hop
	traced          *tracedTimes // traced executions only
	counts          counts       // traced executions only
}

// tracedTimes holds what a traced execution measures around each public
// call, in host seconds unless named otherwise.
type tracedTimes struct {
	parse, check, irBuild, codegen, facts float64
	newCluster, start, snapshot, export   float64
	setupAllocMB                          float64
	gcCPU                                 float64 // GC CPU seconds inside Run
	gcCycles                              uint64
	fuseBuilds                            uint64
	codeBytes                             int
}

// calibrate runs the workload once without faults and returns the event
// budget every measured execution gets.
func calibrate(w *Workload) (uint64, error) {
	clean := *w
	clean.Chaos = nil
	cl, err := clean.setup()
	if err != nil {
		return 0, err
	}
	if err := cl.Run(50_000_000); err != nil {
		return 0, fmt.Errorf("%s: clean calibration run: %w", w.Name, err)
	}
	return cl.Sim.Events() * budgetFactor, nil
}

// threadCPU returns the CPU time of the calling OS thread, user and system
// (Linux CLOCK_THREAD_CPUTIME_ID); callers lock their goroutine to the
// thread. Host times are this clock rather than the wall clock. The
// simulation runs on one goroutine, so on an idle machine the two agree.
// But on a shared virtual machine the wall clock also counts the time the
// hypervisor runs other guests: 13-23% of the CPU time in use, measured
// while this benchmark ran on a 2-vCPU guest. No change to the program can
// move that. The process CPU clock is no better: it adds the garbage
// collector's idle-time mark workers on the second CPU, which run for as
// long as a mark phase lasts and do not delay the simulation.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // only a bad clock id or address fails
	}
	return time.Duration(ts.Nano())
}

// execute runs the workload once untraced: set-up and Run are timed with
// nothing else on, allocation is read around them and the live heap after
// a forced collection with the cluster still reachable. It starts with a
// collection too, so no execution pays for the previous one's garbage.
func execute(w *Workload, budget uint64) (*execution, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := threadCPU()
	cl, err := w.setup()
	if err != nil {
		return nil, err
	}
	c1 := threadCPU()
	runErr := cl.Run(budget)
	c2 := threadCPU()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	e := &execution{
		setupS:  (c1 - c0).Seconds(),
		runS:    (c2 - c1).Seconds(),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		liveMB:  float64(m2.HeapAlloc) / (1 << 20),
	}
	runtime.KeepAlive(cl)
	e.finish(w, cl, runErr, cl.MetricsSnapshot())
	return e, nil
}

// finish checks the outputs and records the simulated results.
func (e *execution) finish(w *Workload, cl *kernel.Cluster, runErr error, snap obs.Snapshot) {
	e.failed, e.firstFailure = check(w, cl, runErr)
	e.simS = cl.Sim.Now().MS() / 1000
	for _, sp := range cl.Rec.Spans() {
		// A hop completes when the destination respecializes it; under
		// faults a delivered move can still be rejected or superseded.
		if sp.Done {
			e.hops = append(e.hops, sp.TotalMicros())
		}
	}
	e.fingerprint = fingerprint(cl, snap, runErr)
}

// check counts the operations that failed in one execution. An operation
// is one expected line. Each missing or wrong line is a failed operation;
// so is each fault, each thread still blocked at quiescence and an
// exhausted event budget. A blocked session both misses its line and
// leaves its thread behind, so the two counts are not added: the larger
// one stands, capped at the operations attempted.
func check(w *Workload, cl *kernel.Cluster, runErr error) (int, string) {
	want := map[string]int{}
	for _, l := range w.Expect {
		want[l]++
	}
	for _, l := range cl.PrintedLines() {
		want[l]--
	}
	missing, first := 0, ""
	for _, l := range w.Expect {
		if want[l] > 0 {
			missing++
			want[l]--
			if first == "" {
				first = fmt.Sprintf("missing line %q", l)
			}
		}
	}
	blocked := cl.BlockedThreads()
	signals := len(cl.Faults) + len(blocked)
	switch {
	case runErr != nil:
		signals++
		first = runErr.Error()
	case len(cl.Faults) > 0:
		first = "fault: " + cl.Faults[0].Msg
	case len(blocked) > 0:
		first = "blocked at quiescence: " + blocked[0]
	}
	failed := max(missing, signals)
	return min(failed, len(w.Expect)), first
}

// fingerprint hashes everything a run of one seed must reproduce exactly:
// printed lines, faults, blocked threads, the simulated clock and event
// count, the metrics snapshot and every migration span.
func fingerprint(cl *kernel.Cluster, snap obs.Snapshot, runErr error) [32]byte {
	h := sha256.New()
	for _, l := range cl.Output {
		fmt.Fprintf(h, "%d %d %s\n", l.Node, l.At, l.Text)
	}
	for _, f := range cl.Faults {
		fmt.Fprintf(h, "fault %d %d %s\n", f.Node, f.At, f.Msg)
	}
	for _, b := range cl.BlockedThreads() {
		fmt.Fprintf(h, "blocked %s\n", b)
	}
	fmt.Fprintf(h, "err %v\n", runErr)
	binary.Write(h, binary.LittleEndian, int64(cl.Sim.Now()))
	binary.Write(h, binary.LittleEndian, cl.Sim.Events())
	binary.Write(h, binary.LittleEndian, cl.Rec.Dropped())
	if err := obs.WriteMetricsJSON(h, snap); err != nil {
		fmt.Fprintf(h, "metrics error %v\n", err)
	}
	for _, sp := range cl.Rec.Spans() {
		io.WriteString(h, sp.String())
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// span is one benchmark-side span of the traced run: wall-clock placement
// for the timeline, and the CPU time the metrics use.
type span struct {
	name   string
	parent string
	iter   int
	start  time.Duration // wall clock, since the traced run began
	dur    time.Duration // wall clock
	cpu    time.Duration
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	iter   int
	spans  []span
}

// do runs f inside a span and returns the CPU time it took.
func (t *tracer) do(name, parent string, f func()) time.Duration {
	s, c := time.Now(), threadCPU()
	f()
	cpu, d := threadCPU()-c, time.Since(s)
	t.spans = append(t.spans, span{name: name, parent: parent, iter: t.iter, start: s.Sub(t.origin), dur: d, cpu: cpu})
	return cpu
}

// gcCPU reads the runtime's cumulative GC CPU seconds and cycle count.
func gcCPU() (float64, uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var secs float64
	var cycles uint64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		secs = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		cycles = s[1].Value.Uint64()
	}
	return secs, cycles
}

// executeTraced runs the workload once with a span around each public call
// into the program's layers. Run carries the profiler label that the
// per-layer self times are read from.
func executeTraced(w *Workload, budget uint64, t *tracer) (*execution, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	tt := &tracedTimes{}
	var (
		err  error
		prog *codegen.Program
		cl   *kernel.Cluster
	)
	fuse0 := arch.FuseBuildCount()
	setup := t.do("setup", "", func() {
		var tree *ast.Program
		tt.parse = t.do("lang.parse", "setup", func() { tree, err = parser.Parse(w.Src) }).Seconds()
		if err != nil {
			return
		}
		var info *types.Info
		tt.check = t.do("lang.check", "setup", func() { info, err = types.Check(tree) }).Seconds()
		if err != nil {
			return
		}
		var irp *ir.Program
		tt.irBuild = t.do("ir.build", "setup", func() { irp = ir.Build(info) }).Seconds()
		tt.codegen = t.do("codegen.compile", "setup", func() { prog, err = codegen.Compile(irp) }).Seconds()
		if err != nil {
			return
		}
		var cohorts [][]string
		var pinned []string
		if w.AutoPolicy != "" {
			tt.facts = t.do("pta.facts", "setup", func() { cohorts, pinned, err = core.AutoFacts(prog) }).Seconds()
			if err != nil {
				return
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tt.newCluster = t.do("kernel.new_cluster", "setup", func() {
			cl, err = kernel.NewCluster(prog, core.Figure1Network(), w.config(cohorts, pinned))
		}).Seconds()
		if err != nil {
			return
		}
		tt.start = t.do("kernel.start", "setup", func() { start(cl) }).Seconds()
		runtime.ReadMemStats(&m1)
		tt.setupAllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", w.Name, err)
	}
	tt.codeBytes = codeBytes(prog)
	var runErr error
	gc0, cyc0 := gcCPU()
	run := t.do("kernel.run", "", func() {
		pprof.Do(context.Background(), pprof.Labels(runLabel, "run"), func(context.Context) {
			runErr = cl.Run(budget)
		})
	})
	gc1, cyc1 := gcCPU()
	// Nodes load (and fuse) code on first use, inside Run.
	tt.fuseBuilds = arch.FuseBuildCount() - fuse0
	tt.gcCPU, tt.gcCycles = gc1-gc0, cyc1-cyc0
	var snap obs.Snapshot
	tt.snapshot = t.do("obs.snapshot", "", func() { snap = cl.MetricsSnapshot() }).Seconds()
	tt.export = t.do("obs.export", "", func() {
		var buf bytes.Buffer
		if err = obs.WriteChromeTrace(&buf, cl.Rec); err == nil {
			err = obs.WriteMetricsJSON(&buf, snap)
		}
	}).Seconds()
	if err != nil {
		return nil, fmt.Errorf("%s: program trace export: %w", w.Name, err)
	}
	e := &execution{setupS: setup.Seconds(), runS: run.Seconds(), traced: tt}
	e.finish(w, cl, runErr, snap)
	e.counts = readCounts(cl, snap)
	return e, nil
}

// runLabel is the profiler label key that marks samples taken inside Run.
const runLabel = "perfbench"

// codeBytes totals the native code of every function on every ISA.
func codeBytes(p *codegen.Program) int {
	n := 0
	for _, o := range p.Objects {
		for _, ac := range o.PerArch {
			if ac == nil {
				continue
			}
			for _, f := range ac.Funcs {
				n += len(f.Code)
			}
		}
	}
	return n
}
