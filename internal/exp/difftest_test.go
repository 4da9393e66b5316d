package exp

// Differential testing with randomly generated programs: the ultimate
// cross-check of the whole pipeline. Each generated program must print
// byte-identical output when executed
//
//   - by the source-level AST interpreter,
//   - by the byte-code interpreter,
//   - as native code on each of the three ISAs, and
//   - as native code on a heterogeneous cluster with `move self` statements
//     injected throughout the computation (thread state crossing
//     endianness, float-format, register-home and AR-layout boundaries).
//
// Any divergence pinpoints a bug in a code generator, an emulator, or the
// migration engine's thread-state conversion.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netsim"
)

// progGen generates random terminating programs.
type progGen struct {
	rng    *rand.Rand
	b      strings.Builder
	vars   []string // int locals in scope
	rvars  []string // real locals in scope
	nv     int
	depth  int
	moves  bool // inject `move self to ...`
	nnodes int
}

func (g *progGen) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", g.depth+2))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// intExpr emits a random integer expression of bounded depth.
func (g *progGen) intExpr(d int) string {
	if d <= 0 || len(g.vars) == 0 || g.rng.Intn(3) == 0 {
		if len(g.vars) > 0 && g.rng.Intn(2) == 0 {
			return g.vars[g.rng.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.rng.Intn(201)-100)
	}
	x, y := g.intExpr(d-1), g.intExpr(d-1)
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", x, y)
	case 1:
		return fmt.Sprintf("(%s - %s)", x, y)
	case 2:
		return fmt.Sprintf("(%s * %s)", x, y)
	case 3:
		// Guarded division: denominator in 1..7.
		return fmt.Sprintf("(%s / (abs(%s) %% 7 + 1))", x, y)
	case 4:
		return fmt.Sprintf("(%s %% (abs(%s) %% 9 + 1))", x, y)
	default:
		return fmt.Sprintf("abs(%s)", x)
	}
}

// boolExpr emits a random boolean expression.
func (g *progGen) boolExpr() string {
	x, y := g.intExpr(1), g.intExpr(1)
	op := []string{"<", "<=", ">", ">=", "==", "!="}[g.rng.Intn(6)]
	e := fmt.Sprintf("%s %s %s", x, op, y)
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s) & (%s %s %s)", e, g.intExpr(1), op, g.intExpr(1))
	case 1:
		return fmt.Sprintf("(%s) | (%s < %s)", e, g.intExpr(1), g.intExpr(1))
	case 2:
		return fmt.Sprintf("!(%s)", e)
	default:
		return e
	}
}

// realExpr emits a random real expression over values that stay exact in
// both VAX F and IEEE formats (dyadic rationals with bounded magnitude).
func (g *progGen) realExpr(d int) string {
	if d <= 0 || len(g.rvars) == 0 || g.rng.Intn(3) == 0 {
		if len(g.rvars) > 0 && g.rng.Intn(2) == 0 {
			return g.rvars[g.rng.Intn(len(g.rvars))]
		}
		return fmt.Sprintf("%d.%d", g.rng.Intn(16), [4]int{0, 25, 5, 75}[g.rng.Intn(4)])
	}
	x, y := g.realExpr(d-1), g.realExpr(d-1)
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s + %s)", x, y)
	case 1:
		return fmt.Sprintf("(%s - %s)", x, y)
	default:
		return fmt.Sprintf("(%s * 0.5)", x)
	}
}

func (g *progGen) newVar() string {
	g.nv++
	return fmt.Sprintf("v%d", g.nv)
}

// nested emits a block body with proper lexical scoping: variables declared
// inside leave scope afterwards.
func (g *progGen) nested(body func()) {
	nv, nrv := len(g.vars), len(g.rvars)
	g.depth++
	body()
	g.depth--
	g.vars = g.vars[:nv]
	g.rvars = g.rvars[:nrv]
}

// maybeMove injects a migration at a random point.
func (g *progGen) maybeMove() {
	if g.moves && g.rng.Intn(3) == 0 {
		g.line("move self to node(%d)", g.rng.Intn(g.nnodes))
	}
}

// stmts emits n random statements.
func (g *progGen) stmts(n int) {
	for i := 0; i < n; i++ {
		g.maybeMove()
		switch g.rng.Intn(7) {
		case 0, 1:
			v := g.newVar()
			g.line("var %s: Int <- %s", v, g.intExpr(2))
			g.vars = append(g.vars, v)
		case 2:
			if len(g.vars) > 0 {
				v := g.vars[g.rng.Intn(len(g.vars))]
				g.line("%s <- %s", v, g.intExpr(2))
			}
		case 3:
			if g.depth < 2 {
				g.line("if %s then", g.boolExpr())
				g.nested(func() { g.stmts(1 + g.rng.Intn(2)) })
				if g.rng.Intn(2) == 0 {
					g.line("else")
					g.nested(func() { g.stmts(1 + g.rng.Intn(2)) })
				}
				g.line("end")
			}
		case 4:
			if g.depth < 2 {
				// The counter stays out of g.vars: a random assignment to
				// it would break termination.
				c := g.newVar()
				bound := 2 + g.rng.Intn(4)
				g.line("var %s: Int <- 0", c)
				g.line("while %s < %d do", c, bound)
				g.nested(func() {
					g.stmts(1 + g.rng.Intn(2))
					g.line("%s <- %s + 1", c, c)
				})
				g.line("end")
			}
		case 5:
			v := g.newVar()
			g.line("var %s: Real <- %s", v, g.realExpr(2))
			g.rvars = append(g.rvars, v)
		case 6:
			if len(g.rvars) > 0 {
				v := g.rvars[g.rng.Intn(len(g.rvars))]
				g.line("%s <- %s", v, g.realExpr(2))
			}
		}
	}
}

// generate builds a complete program.
func generate(seed int64, moves bool, nnodes int) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed)), moves: moves, nnodes: nnodes}
	g.b.WriteString("object M\n  operation f(a: Int, b: Int) -> (r: Int)\n")
	g.vars = []string{"a", "b"}
	g.stmts(6 + g.rng.Intn(6))
	// Fold every live variable into the result so nothing is dead.
	g.line("r <- 0")
	for _, v := range g.vars {
		g.line("r <- r * 31 + %s", v)
	}
	for _, v := range g.rvars {
		g.line("if %s < 1000000.0 then", v)
		g.line("  r <- r + 1")
		g.line("end")
	}
	if moves {
		g.line("move self to node(0)")
	}
	g.b.WriteString("  end\nend M\n")
	g.b.WriteString(`object Main
  process
    var m: M <- new M
    print(m.f(17, 0 - 23))
`)
	for _, v := range g.rvars {
		_ = v
	}
	g.b.WriteString("  end process\nend Main\n")
	return g.b.String()
}

// runNative executes src on the given machines and returns the output.
func runNative(t *testing.T, src string, machines []netsim.MachineModel) string {
	t.Helper()
	sys, err := core.RunSource(src, machines, core.Options{})
	if err != nil {
		t.Fatalf("native run: %v\nprogram:\n%s", err, src)
	}
	return sys.Output()
}

func TestDifferentialRandomPrograms(t *testing.T) {
	const trials = 60
	for seed := int64(0); seed < trials; seed++ {
		src := generate(seed, false, 1)
		info, _, err := core.CompileInfo(src)
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
		s := interp.NewSource(info)
		s.Run()
		if len(s.RT().Faults) > 0 {
			t.Fatalf("seed %d: source faults %v\nprogram:\n%s", seed, s.RT().Faults, src)
		}
		want := strings.Join(s.RT().Output, "\n")

		bc := interp.NewBytecode(ir.Build(info))
		bc.Run()
		if got := strings.Join(bc.RT().Output, "\n"); got != want {
			t.Fatalf("seed %d: bytecode %q != source %q\nprogram:\n%s", seed, got, want, src)
		}
		for _, m := range []netsim.MachineModel{
			netsim.VAXstation2000, netsim.Sun3_100, netsim.SPARCstationSLC,
		} {
			if got := runNative(t, src, []netsim.MachineModel{m}); got != want {
				t.Fatalf("seed %d: native %s %q != source %q\nprogram:\n%s",
					seed, m.Name, got, want, src)
			}
		}
	}
}

func TestDifferentialRandomMigration(t *testing.T) {
	// The same generated computation, now with `move self` injected between
	// statements, run on a heterogeneous cluster: output must match the
	// single-node run of the motion-free twin (the generator emits the same
	// statements for a given seed whether or not moves are injected only if
	// the rng streams align, so compare against the moving program run on
	// one node instead — moves to node(0) are then no-ops).
	const trials = 30
	machines := []netsim.MachineModel{
		netsim.SPARCstationSLC, netsim.VAXstation2000, netsim.Sun3_100,
	}
	for seed := int64(100); seed < 100+trials; seed++ {
		src := generate(seed, true, len(machines))
		// Reference: the same program where every move is a self-move to
		// the only node (no-ops), single SPARC node. node(i) for i>0 would
		// fault on one node, so rewrite the destinations to node(0).
		ref := strings.ReplaceAll(src, "move self to node(1)", "move self to node(0)")
		ref = strings.ReplaceAll(ref, "move self to node(2)", "move self to node(0)")
		want := runNative(t, ref, []netsim.MachineModel{netsim.SPARCstationSLC})
		got := runNative(t, src, machines)
		if got != want {
			t.Fatalf("seed %d: migrated %q != reference %q\nprogram:\n%s", seed, got, want, src)
		}
	}
}
