// Command emtrace runs an Emerald-subset program on the simulated
// heterogeneous network and exports the run's observability data: a Chrome
// trace-event JSON timeline (load it in chrome://tracing or Perfetto) with
// the per-hop MD→MI / wire / MI→MD phase breakdown, a flat JSON metrics
// dump, the structured event log as text, and a human span table.
//
// Usage:
//
//	emtrace [-net spec] [-mode enhanced|original|batched|fastpath]
//	        [-chaos plan] [-chrome out.json] [-metrics out.json]
//	        [-text] [-spans] file.em
//	emtrace faults [-net spec] [-mode m] [-chaos plan] file.em
//
// With no export flags, emtrace prints the span table. The faults
// subcommand runs the program under a chaos plan and prints a per-node
// reconciliation of injected faults against the protocol's recovery
// actions. All output is deterministic: the same program on the same
// network with the same plan produces identical bytes on every run.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "faults" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		faultsMain()
		return
	}
	netSpec := flag.String("net", "sun3,hp1,sparc,vax", "comma-separated machine list ("+core.MachineNames+")")
	mode := flag.String("mode", "enhanced", "conversion mode: enhanced, original, batched, fastpath")
	chaosSpec := flag.String("chaos", "", "seeded fault plan, e.g. seed=7,drop=0.05 (see internal/chaos)")
	chromeOut := flag.String("chrome", "", "write a Chrome trace-event JSON timeline to this file")
	metricsOut := flag.String("metrics", "", "write a flat JSON metrics snapshot to this file")
	text := flag.Bool("text", false, "print the structured event log as text to stdout")
	spans := flag.Bool("spans", false, "print the migration-span table (default when no other output is selected)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: emtrace [faults] [-net spec] [-mode m] [-chaos plan] [-chrome out.json] [-metrics out.json] [-text] [-spans] file.em")
		os.Exit(2)
	}
	if err := run(*netSpec, *mode, *chaosSpec, *chromeOut, *metricsOut, *text, *spans, flag.Arg(0)); err != nil {
		for _, line := range core.Diagnostics(err) {
			fmt.Fprintln(os.Stderr, "emtrace:", line)
		}
		os.Exit(1)
	}
}

// runUnder compiles and runs file on the given network under an optional
// chaos plan (shared by the default mode and the faults subcommand).
func runUnder(netSpec, mode, chaosSpec, file string) (*core.System, error) {
	machines, err := core.ParseNetwork(netSpec)
	if err != nil {
		return nil, err
	}
	cm, err := core.ParseMode(mode)
	if err != nil {
		return nil, err
	}
	var opts core.Options
	opts.Mode = cm
	if chaosSpec != "" {
		if opts.Chaos, err = chaos.ParsePlan(chaosSpec); err != nil {
			return nil, err
		}
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return core.RunSource(string(src), machines, opts)
}

func run(netSpec, mode, chaosSpec, chromeOut, metricsOut string, text, spans bool, file string) error {
	sys, err := runUnder(netSpec, mode, chaosSpec, file)
	if err != nil {
		return err
	}
	rec := sys.Recorder()
	if chromeOut != "" {
		if err := writeFile(chromeOut, func(f *os.File) error {
			return obs.WriteChromeTrace(f, rec)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "emtrace: wrote %s (%d spans, %d events)\n",
			chromeOut, len(rec.Spans()), len(rec.Events()))
	}
	if metricsOut != "" {
		snap := sys.MetricsSnapshot()
		if err := writeFile(metricsOut, func(f *os.File) error {
			return obs.WriteMetricsJSON(f, snap)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "emtrace: wrote %s\n", metricsOut)
	}
	if text {
		os.Stdout.Write(obs.EventLog(rec))
	}
	if spans || (chromeOut == "" && metricsOut == "" && !text) {
		fmt.Print(obs.FormatSpans(rec))
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "emtrace: %d events evicted from full rings (raise kernel.Config.EventRingCap for full streams)\n", d)
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
