// Command emrun compiles an Emerald-subset program and runs it on a
// simulated network of heterogeneous workstations.
//
// Usage:
//
//	emrun [-net spec] [-mode enhanced|original|batched|fastpath]
//	      [-chaos plan] [-parallel] [-auto policy] [-auto-period µs]
//	      [-auto-log] [-dir n] [-dir-lease µs] [-legacy] [-trace]
//	      [-stats] [-vetload] file.em
//
// The network spec is a comma-separated list of machine models, e.g.
// "sparc,vax,sun3,hp1,hp2" (default: the paper's Figure 1 network
// sun3,hp1,sparc,vax).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/kernel"
)

func main() {
	netSpec := flag.String("net", "sun3,hp1,sparc,vax", "comma-separated machine list")
	mode := flag.String("mode", "enhanced", "conversion mode: enhanced, original, batched, fastpath")
	trace := flag.Bool("trace", false, "print kernel event trace")
	stats := flag.Bool("stats", false, "print per-node statistics")
	vetLoad := flag.Bool("vetload", false, "nodes vet each code object's mobility metadata before loading it")
	parallel := flag.Bool("parallel", false, "run each node on its own goroutine (identical results; see DESIGN.md §12)")
	legacy := flag.Bool("legacy", false, "force the byte-at-a-time reference emulator (slowest; identical results)")
	chaosSpec := flag.String("chaos", "", "seeded fault plan, e.g. seed=7,drop=0.05,dup=0.02,crash=1@20000:50000 (see internal/chaos)")
	autoPolicy := flag.String("auto", "", "adaptive placement policy: greedy-colocate or load-balance (sequential engine only)")
	autoPeriod := flag.Int64("auto-period", 0, "placement tick period in simulated µs (0: kernel default)")
	autoLog := flag.Bool("auto-log", false, "print the placement decision log after the run")
	dirReplicas := flag.Int("dir", 0, "arm the replicated object directory with N replicas per shard (0: off)")
	dirLease := flag.Int64("dir-lease", 0, "directory read-lease duration in simulated µs (0: lease-free lookups)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: emrun [-net spec] [-mode m] [-chaos plan] [-parallel] [-auto policy] [-auto-period µs] [-auto-log] [-dir n] [-dir-lease µs] [-legacy] [-trace] [-stats] [-vetload] file.em")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "emrun:", err)
		os.Exit(1)
	}
	machines, err := core.ParseNetwork(*netSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emrun:", err)
		os.Exit(2)
	}
	cm, err := core.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emrun:", err)
		os.Exit(2)
	}
	if *dirReplicas != 0 {
		// Clamp out-of-range replica counts up front with a diagnostic
		// rather than letting the kernel mis-shard silently; the clamped
		// value is what actually arms the directory.
		dcfg, diags := dir.Config{Replicas: *dirReplicas}.NormalizeDiag(len(machines))
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, "emrun: -dir:", d)
		}
		*dirReplicas = dcfg.Replicas
	}
	opts := core.Options{Parallel: *parallel, Config: kernel.Config{Mode: cm, VetOnLoad: *vetLoad,
		LegacyDispatch: *legacy, AutoPolicy: *autoPolicy, AutoPeriodMicros: *autoPeriod,
		DirReplicas: *dirReplicas, DirLeaseMicros: *dirLease}}
	if *chaosSpec != "" {
		plan, err := chaos.ParsePlan(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "emrun:", err)
			os.Exit(2)
		}
		opts.Chaos = plan
	}
	if *trace {
		opts.Trace = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	prog, err := core.Compile(string(src))
	if err != nil {
		for _, line := range core.Diagnostics(err) {
			fmt.Fprintln(os.Stderr, "emrun:", line)
		}
		os.Exit(1)
	}
	sys, err := core.NewSystem(prog, machines, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emrun:", err)
		os.Exit(1)
	}
	runErr := sys.Run()
	for _, line := range sys.Lines() {
		fmt.Println(line)
	}
	if *autoLog {
		for _, l := range sys.AutoDecisionLog() {
			fmt.Fprintln(os.Stderr, "auto:", l)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "\nsimulated time: %.1f ms\n", sys.ElapsedMS())
		for _, n := range sys.Cluster.Nodes {
			fmt.Fprintf(os.Stderr, "node%d %-18s [%s] instrs=%d msgs=%d/%d migrations=%d\n",
				n.ID, n.Model.Name, n.Spec.Name, n.Instrs, n.MsgsSent, n.MsgsRecv, n.Migrations)
		}
		st := sys.Cluster.ConvStats()
		fmt.Fprintf(os.Stderr, "conversion calls=%d values=%d wire payload=%d bytes\n",
			st.Calls, st.Values, sys.Cluster.Net.PayloadLen)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "emrun:", runErr)
		os.Exit(1)
	}
	if blocked := sys.Cluster.BlockedThreads(); len(blocked) > 0 {
		fmt.Fprintln(os.Stderr, "emrun: blocked threads at exit:")
		for _, b := range blocked {
			fmt.Fprintln(os.Stderr, "  ", b)
		}
	}
}
