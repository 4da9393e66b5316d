package main

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/auto/workgen"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kernel"
)

// Workload is one generated program, the configuration it runs under and
// the lines its threads must print. Every field derives from the seed, so
// the same seed gives the same program, options and expectations.
type Workload struct {
	Name string
	Src  string
	// Expect is every line the program prints, as a multiset: concurrent
	// threads print in an order only the engine fixes, so the oracle does
	// not compare order (the determinism guard does).
	Expect []string

	DirReplicas    int
	DirLeaseMicros int64
	AutoPolicy     string
	Chaos          *chaos.Plan
}

// sizes fixes how much work one generated program does. The benchmark uses
// the full sizes; the tests run the same generators small.
type sizes struct {
	// tour
	Walkers, Laps, Callers, Calls int
	// services and faulty (workgen)
	Services, Sessions, Requests int
	// compute: outer iterations, each with an inner loop of Inner
	Outer, Inner int
}

// benchSizes are the sizes the benchmark measures. Each program runs for
// 0.2–0.4 host seconds, so a 35 s run holds 60 to 120 executions and its
// medians settle.
var benchSizes = sizes{
	Walkers: 4, Laps: 500, Callers: 4, Calls: 150,
	Services: 6, Sessions: 4, Requests: 150,
	Outer: 400, Inner: 350,
}

// nodes is the Figure 1 network size; generators address node(i % nodes())
// so the single-node reference interpreter runs the same source.
const nodes = 4

// workloadNames lists the workloads in the order the all-workload table
// prints them.
var workloadNames = []string{"tour", "services", "compute", "faulty"}

// Generate builds the named workload for a seed at the given sizes.
func Generate(name string, seed uint64, sz sizes) (*Workload, error) {
	switch name {
	case "tour":
		return genTour(seed, sz), nil
	case "services":
		return genServices(seed, sz)
	case "compute":
		return genCompute(seed, sz), nil
	case "faulty":
		w, err := genServices(seed, sz)
		if err != nil {
			return nil, err
		}
		w.Name = "faulty"
		// No crashes: over the reliable links every session must still
		// complete, so each missing line is a protocol failure.
		w.Chaos = &chaos.Plan{Seed: seed, Drop: 0.02, Dup: 0.01,
			Delay: 0.02, DelayMicros: 2000, Corrupt: 0.01}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// rng is a splitmix64 stream, the generator the repository's seeded
// components use.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genTour renders Mobile13-shaped walkers: each walker thread calls
// tour() on its own Mobile object and hops it round-robin over the nodes,
// carrying 13 live variables of every storage kind (2 parameters, the
// result and 10 locals) across every hop. Callers sit on fixed nodes and
// invoke and locate the moving objects while they hop.
func genTour(seed uint64, sz sizes) *Workload {
	r := &rng{state: seed}
	v1Start := 1 + r.intn(9000)
	var b strings.Builder
	b.WriteString(`object Mobile
  operation echo(x: Int) -> (r: Int)
    r <- x * 3 + 1
  end
  operation tour(laps: Int, step: Int) -> (r: Int)
    var k: Int <- step
    var v1: Int <- ` + fmt.Sprint(v1Start) + `
    var v2: Int <- 0
    var v3: Real <- 3.25
    var v4: Bool <- true
    var v5: String <- "thirteen"
    var v6: Int <- 606
    var v7: Int <- 707
    var v8: Real <- 0.5
    var i: Int <- 0
    while i < laps do
      k <- (k + step) % nodes()
      move self to node(k)
      v1 <- (v1 * 5 + i) % 10007
      v2 <- v2 + v1 % 13
      v3 <- v3 + v8
      v4 <- v4 & v2 >= 0
      i <- i + 1
    end
    if v4 & v3 > 3.0 then
      r <- v1 + v2 + v6 + v7 + v5.size()
    end
  end
end Mobile

object Walker
  var m: Mobile
  var laps: Int
  var step: Int
  var id: Int
  process
    var r: Int <- m.tour(laps, step)
    print("walker ", id, " r=", r)
  end process
end Walker

object Caller
  var m: Mobile
  var calls: Int
  var id: Int
  var base: Int
  process
    var h: Int <- id % nodes()
    move self to node(h)
    var sum: Int <- 0
    var where: Node <- thisnode()
    var i: Int <- 0
    while i < calls do
      sum <- sum + m.echo(base + i)
      where <- locate(m)
      i <- i + 1
    end
    print("caller ", id, " sum=", sum)
  end process
end Caller

object Main
  process
`)
	var expect []string
	for w := 0; w < sz.Walkers; w++ {
		fmt.Fprintf(&b, "    var m%d: Mobile <- new Mobile\n", w)
	}
	for w := 0; w < sz.Walkers; w++ {
		// Step 1 tours the nodes forward, step 3 backward.
		step := 1 + 2*r.intn(2)
		fmt.Fprintf(&b, "    var w%d: Walker <- new Walker(m%d, %d, %d, %d)\n", w, w, sz.Laps, step, w)
		v1, v2 := v1Start, 0
		for i := 0; i < sz.Laps; i++ {
			v1 = (v1*5 + i) % 10007
			v2 += v1 % 13
		}
		expect = append(expect, fmt.Sprintf("walker %d r=%d", w, v1+v2+606+707+len("thirteen")))
	}
	for c := 0; c < sz.Callers; c++ {
		base := 1 + r.intn(1000)
		fmt.Fprintf(&b, "    var c%d: Caller <- new Caller(m%d, %d, %d, %d)\n", c, c%sz.Walkers, sz.Calls, c, base)
		sum := 0
		for i := 0; i < sz.Calls; i++ {
			sum += (base+i)*3 + 1
		}
		expect = append(expect, fmt.Sprintf("caller %d sum=%d", c, sum))
	}
	b.WriteString("  end process\nend Main\n")
	return &Workload{Name: "tour", Src: b.String(), Expect: expect,
		DirReplicas: 3, DirLeaseMicros: 2_000_000}
}

// expectRE matches the expected-result literal workgen bakes into each
// session's final print.
var expectRE = regexp.MustCompile(`print\("sess(\d+) done sum=", sum, " expect=(\d+)"\)`)

// genServices renders the workgen zipf service mix (open-loop sessions,
// misplaced services) under greedy-colocate placement with a 3-replica
// directory and read leases. workgen computes each session's expected sum
// in Go and bakes it into the session's print; the oracle reads it back.
func genServices(seed uint64, sz sizes) (*Workload, error) {
	src := workgen.Generate(workgen.Config{Seed: seed, Services: sz.Services,
		Sessions: sz.Sessions, Requests: sz.Requests, Theta: 1.1, Nodes: nodes, Open: true})
	expect := []string{fmt.Sprintf("workload up: %d services, %d sessions", sz.Services, sz.Sessions)}
	for _, m := range expectRE.FindAllStringSubmatch(src, -1) {
		expect = append(expect, fmt.Sprintf("sess%s done sum=%s expect=%s", m[1], m[2], m[2]))
	}
	if len(expect) != sz.Sessions+1 {
		return nil, fmt.Errorf("services: found %d session results in the generated source, want %d", len(expect)-1, sz.Sessions)
	}
	return &Workload{Name: "services", Src: src, Expect: expect,
		DirReplicas: 3, DirLeaseMicros: 2_000_000, AutoPolicy: "greedy-colocate"}, nil
}

// genCompute renders one CPU-bound worker per node: an inner loop of
// arithmetic and field updates that stays in the emulator, inside an outer
// loop whose local call and array accesses trap into the kernel. There are
// no moves and no remote traffic; the program has no Main, so each worker
// is a root and start places one on each node.
func genCompute(seed uint64, sz sizes) *Workload {
	r := &rng{state: seed}
	var b strings.Builder
	w := &Workload{Name: "compute"}
	for n := 0; n < nodes; n++ {
		name := fmt.Sprintf("Worker%d", n)
		h0, c := r.intn(65521), 1+r.intn(100)
		fmt.Fprintf(&b, `object %s
  var cells: Array[Int]
  var acc: Int <- 0
  operation mix(a: Int, b: Int) -> (r: Int)
    r <- (a * 31 + b + %d) %% 65521
  end
  process
    cells <- new Array[Int](64)
    var h: Int <- %d
    var x: Int <- 0
    var i: Int <- 0
    var j: Int <- 0
    while i < %d do
      h <- mix(h, cells[i %% 64])
      cells[(i * 7) %% 64] <- h
      j <- 0
      while j < %d do
        acc <- (acc * 17 + h + j) %% 1000003
        x <- x + acc %% 13
        j <- j + 1
      end
      i <- i + 1
    end
    print("worker %d h=", h, " acc=", acc, " x=", x)
  end process
end %s

`, name, c, h0, sz.Outer, sz.Inner, n, name)
		cells := make([]int, 64)
		h, acc, x := h0, 0, 0
		for i := 0; i < sz.Outer; i++ {
			h = (h*31 + cells[i%64] + c) % 65521
			cells[(i*7)%64] = h
			for j := 0; j < sz.Inner; j++ {
				acc = (acc*17 + h + j) % 1000003
				x += acc % 13
			}
		}
		w.Expect = append(w.Expect, fmt.Sprintf("worker %d h=%d acc=%d x=%d", n, h, acc, x))
	}
	w.Src = b.String()
	return w
}

// config translates the workload's options into the kernel configuration,
// as core.NewSystem does; cohorts and pinned come from core.AutoFacts.
func (w *Workload) config(cohorts [][]string, pinned []string) kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.DirReplicas = w.DirReplicas
	cfg.DirLeaseMicros = w.DirLeaseMicros
	cfg.Chaos = w.Chaos
	if w.AutoPolicy != "" {
		cfg.AutoPolicy = w.AutoPolicy
		cfg.AutoCohorts = cohorts
		cfg.AutoPinned = pinned
	}
	return cfg
}

// start boots the program. Main, where there is one, starts on node 0. A
// program without Main boots every process object as a root, root i on
// node i % nodes: that is how compute puts one worker on each node.
func start(cl *kernel.Cluster) {
	cl.Start(func(_ string, i int) int { return i % len(cl.Nodes) })
}

// setup takes the workload from source text to a started cluster, the span
// setup_s measures.
func (w *Workload) setup() (*kernel.Cluster, error) {
	prog, err := core.Compile(w.Src)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
	}
	var cohorts [][]string
	var pinned []string
	if w.AutoPolicy != "" {
		if cohorts, pinned, err = core.AutoFacts(prog); err != nil {
			return nil, fmt.Errorf("%s: placement analysis: %w", w.Name, err)
		}
	}
	cl, err := kernel.NewCluster(prog, core.Figure1Network(), w.config(cohorts, pinned))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	start(cl)
	return cl, nil
}
