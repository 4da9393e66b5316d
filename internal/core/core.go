// Package core is the public face of the system: it wires the compiler
// pipeline (lexer → parser → type checker → IR → per-ISA code generation)
// to the runtime (simulated heterogeneous cluster) behind a small API.
//
// Typical use:
//
//	prog, err := core.Compile(src)
//	sys, err := core.NewSystem(prog, core.Figure1Network(), core.Options{})
//	err = sys.Run()
//	fmt.Println(sys.Output())
package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Diagnostics flattens a Compile error into one line per diagnostic. Parse
// and typecheck failures carry an ErrorList of every problem found; drivers
// should show them all, not just the first.
func Diagnostics(err error) []string {
	var pl parser.ErrorList
	if errors.As(err, &pl) {
		out := make([]string, 0, len(pl))
		for _, e := range pl {
			out = append(out, "parse: "+e.Error())
		}
		return out
	}
	var tl types.ErrorList
	if errors.As(err, &tl) {
		out := make([]string, 0, len(tl))
		for _, e := range tl {
			out = append(out, "typecheck: "+e.Error())
		}
		return out
	}
	return []string{err.Error()}
}

// Compile runs the whole compiler pipeline on Emerald-subset source,
// producing native code, templates and bus-stop tables for every
// architecture.
func Compile(src string) (*codegen.Program, error) {
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := types.Check(ast)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return codegen.Compile(ir.Build(info))
}

// CompileInfo additionally returns the checked AST information (used by the
// source and byte-code interpreters).
func CompileInfo(src string) (*types.Info, *codegen.Program, error) {
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	info, err := types.Check(ast)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck: %w", err)
	}
	p, err := codegen.Compile(ir.Build(info))
	if err != nil {
		return nil, nil, err
	}
	return info, p, nil
}

// Options configures a System: the kernel configuration (the zero value
// is the standard one; see kernel.Config) plus what core adds around it.
// AutoCohorts and AutoPinned are derived: whenever AutoPolicy is set,
// NewSystem fills them from the program with AutoFacts.
type Options struct {
	kernel.Config
	// Placement maps root objects to nodes (nil: all on node 0).
	Placement func(objName string, rootIdx int) int
	// MaxEvents bounds the simulation (0: a generous default).
	MaxEvents uint64
	// Parallel runs each node's events on its own goroutine, using the
	// network's minimum link latency as conservative lookahead. Observable
	// results (printed output, faults, events, spans, metrics, simulated
	// time) are identical to the sequential engine; see DESIGN.md §12.
	// Adaptive placement (AutoPolicy) requires the sequential engine: the
	// policy tick is a cluster-level simulation event.
	Parallel bool
}

// System is a compiled program loaded on a simulated network.
type System struct {
	Cluster *kernel.Cluster
	opts    Options
}

// Figure1Network returns the paper's sample network (Figure 1): Sun-3,
// HP9000/300, SPARC and VAX workstations on one Ethernet.
func Figure1Network() []netsim.MachineModel {
	return []netsim.MachineModel{
		netsim.Sun3_100,
		netsim.HP9000_433s,
		netsim.SPARCstationSLC,
		netsim.VAXstation2000,
	}
}

// machineSpecs maps CLI machine names to their models (shared by the emrun
// and emtrace drivers).
var machineSpecs = map[string]netsim.MachineModel{
	"sparc": netsim.SPARCstationSLC,
	"sun3":  netsim.Sun3_100,
	"hp1":   netsim.HP9000_433s,
	"hp2":   netsim.HP9000_385,
	"vax":   netsim.VAXstation2000,
}

// MachineNames is the accepted -net machine list, for usage messages.
const MachineNames = "sparc, sun3, hp1, hp2, vax"

// ParseNetwork parses a comma-separated machine list (e.g. "sparc,vax")
// into machine models.
func ParseNetwork(spec string) ([]netsim.MachineModel, error) {
	var machines []netsim.MachineModel
	for _, name := range strings.Split(spec, ",") {
		m, ok := machineSpecs[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown machine %q (have %s)", name, MachineNames)
		}
		machines = append(machines, m)
	}
	return machines, nil
}

// ParseMode parses a conversion-mode name (enhanced, original, batched,
// fastpath).
func ParseMode(name string) (kernel.ConvMode, error) {
	switch name {
	case "enhanced":
		return kernel.ModeEnhanced, nil
	case "original":
		return kernel.ModeOriginal, nil
	case "batched":
		return kernel.ModeEnhancedBatched, nil
	case "fastpath":
		return kernel.ModeEnhancedFastPath, nil
	}
	return 0, fmt.Errorf("unknown mode %q (have enhanced, original, batched, fastpath)", name)
}

// NewSystem loads prog onto a cluster of the given machines.
func NewSystem(prog *codegen.Program, machines []netsim.MachineModel, opts Options) (*System, error) {
	cfg := opts.Config
	if opts.Parallel {
		// The text sink is a plain callback with no locking; under the
		// parallel engine events are emitted from node goroutines, so the
		// sink is deferred: Run replays the merged event stream after the
		// run instead of rendering lines as they happen.
		cfg.Trace = nil
	}
	if cfg.AutoPolicy != "" {
		if opts.Parallel {
			return nil, fmt.Errorf("core: adaptive placement (-auto) requires the sequential engine")
		}
		cohorts, pinned, err := AutoFacts(prog)
		if err != nil {
			return nil, fmt.Errorf("core: placement analysis: %w", err)
		}
		cfg.AutoCohorts, cfg.AutoPinned = cohorts, pinned
	}
	cl, err := kernel.NewCluster(prog, machines, cfg)
	if err != nil {
		return nil, err
	}
	return &System{Cluster: cl, opts: opts}, nil
}

// Run boots the program and drives the simulation until it quiesces.
func (s *System) Run() error {
	s.Cluster.Start(s.opts.Placement)
	limit := s.opts.MaxEvents
	if limit == 0 {
		limit = 50_000_000
	}
	var err error
	if s.opts.Parallel {
		err = s.Cluster.RunParallel(limit)
		if s.opts.Trace != nil {
			// Deferred text sink: replay the canonically merged event
			// stream in the exact format the live sink renders.
			for _, e := range s.Cluster.Rec.Events() {
				s.opts.Trace(fmt.Sprintf("[%8dµs] %s", e.At, e.Text()))
			}
		}
	} else {
		err = s.Cluster.Run(limit)
	}
	if err != nil {
		return err
	}
	if len(s.Cluster.Faults) > 0 {
		f := s.Cluster.Faults[0]
		if f.Err != nil {
			return fmt.Errorf("runtime fault on node %d: %s: %w", f.Node, f.Msg, f.Err)
		}
		return fmt.Errorf("runtime fault on node %d: %s", f.Node, f.Msg)
	}
	return nil
}

// Output returns everything the program printed, in order.
func (s *System) Output() string { return s.Cluster.OutputText() }

// Recorder returns the run's observability recorder (events, migration
// spans, metrics registry; see internal/obs).
func (s *System) Recorder() *obs.Recorder { return s.Cluster.Rec }

// MetricsSnapshot captures the cluster's metrics at the current simulated
// instant.
func (s *System) MetricsSnapshot() obs.Snapshot { return s.Cluster.MetricsSnapshot() }

// Lines returns the printed lines.
func (s *System) Lines() []string { return s.Cluster.PrintedLines() }

// ElapsedMS returns the simulated run time in milliseconds.
func (s *System) ElapsedMS() float64 { return s.Cluster.Sim.Now().MS() }

// RunSource is the one-call convenience: compile and run src on machines.
func RunSource(src string, machines []netsim.MachineModel, opts Options) (*System, error) {
	prog, err := Compile(src)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(prog, machines, opts)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		return sys, err
	}
	return sys, nil
}
