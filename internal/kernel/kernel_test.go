package kernel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// compileSrc compiles source through the full pipeline.
func compileSrc(t testing.TB, src string) *codegen.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := codegen.Compile(ir.Build(info))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// Standard machine models for tests.
var (
	mVAX   = netsim.VAXstation2000
	mSun3  = netsim.Sun3_100
	mHP1   = netsim.HP9000_433s
	mSPARC = netsim.SPARCstationSLC
)

// runSrc runs src on the given models and returns the cluster.
func runSrc(t testing.TB, src string, models []netsim.MachineModel, cfg Config) *Cluster {
	t.Helper()
	p := compileSrc(t, src)
	c, err := NewCluster(p, models, cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	c.Start(nil)
	if err := c.Run(5_000_000); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, c.OutputText())
	}
	for _, f := range c.Faults {
		t.Fatalf("fault: node%d frag%08x: %s\noutput:\n%s", f.Node, f.Frag, f.Msg, c.OutputText())
	}
	return c
}

// expectOutput runs src on one node of each architecture and checks output.
func expectOutput(t *testing.T, src string, want ...string) {
	t.Helper()
	for _, m := range []netsim.MachineModel{mVAX, mSun3, mSPARC} {
		c := runSrc(t, src, []netsim.MachineModel{m}, DefaultConfig())
		got := c.PrintedLines()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d lines, want %d:\n%s", m.Name, len(got), len(want), c.OutputText())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: line %d = %q, want %q", m.Name, i, got[i], want[i])
			}
		}
	}
}

func TestHelloAllArchs(t *testing.T) {
	expectOutput(t, `
object Main
  process
    print("hello, emerald")
  end process
end Main
`, "hello, emerald")
}

func TestArithmeticAllArchs(t *testing.T) {
	expectOutput(t, `
object Main
  process
    var a: Int <- 7
    var b: Int <- 3
    print(a + b, " ", a - b, " ", a * b, " ", a / b, " ", a % b)
    print(-a, " ", abs(-a))
    var x: Real <- 2.5
    var y: Real <- x * 4.0 + a
    print(y)
    print(1 < 2, " ", 2 <= 2, " ", 3 > 4, " ", 3 != 3, " ", true & false, " ", true | false, " ", !false)
  end process
end Main
`,
		"10 4 21 2 1",
		"-7 7",
		"17",
		"true true false false false true true")
}

func TestControlFlowAllArchs(t *testing.T) {
	expectOutput(t, `
object Main
  operation classify(x: Int) -> (r: String)
    if x < 0 then
      r <- "neg"
    elseif x == 0 then
      r <- "zero"
    elseif x < 10 then
      r <- "small"
    else
      r <- "big"
    end
  end
  process
    print(classify(0-5), " ", classify(0), " ", classify(5), " ", classify(50))
    var sum: Int <- 0
    var i: Int <- 1
    while i <= 100 do
      sum <- sum + i
      i <- i + 1
    end
    print(sum)
    var k: Int <- 0
    loop
      k <- k + 3
      exit when k > 10
    end
    print(k)
  end process
end Main
`, "neg zero small big", "5050", "12")
}

func TestObjectsAndInvocation(t *testing.T) {
	expectOutput(t, `
object Counter
  var count: Int <- 100
  operation inc(n: Int) -> (r: Int)
    count <- count + n
    r <- count
  end
  function get() -> (r: Int)
    r <- count
  end
end Counter
object Main
  process
    var c: Counter <- new Counter
    print(c.get())
    print(c.inc(5))
    print(c.inc(10))
    var d: Counter <- new Counter(7)
    print(d.get())
  end process
end Main
`, "100", "105", "115", "7")
}

func TestInitiallyAndConstructorArgs(t *testing.T) {
	expectOutput(t, `
object Pair
  var a: Int <- 1
  var b: Int <- 2
  var sum: Int
  initially
    sum <- a + b
  end initially
  operation total() -> (r: Int)
    r <- sum
  end
end Pair
object Main
  process
    var p: Pair <- new Pair
    print(p.total())
    var q: Pair <- new Pair(10, 20)
    print(q.total())
  end process
end Main
`, "3", "30")
}

func TestStringsAllArchs(t *testing.T) {
	expectOutput(t, `
object Main
  process
    var s: String <- "abc" + "def"
    print(s, " ", s.size(), " ", s[0], " ", s == "abcdef", " ", s < "abd")
    print(str(42) + "!" + str(true) + str(1.5))
  end process
end Main
`, "abcdef 6 97 true true", "42!true1.5")
}

func TestArraysAllArchs(t *testing.T) {
	expectOutput(t, `
object Main
  process
    var a: Array[Int] <- new Array[Int](5)
    var i: Int <- 0
    while i < a.size() do
      a[i] <- i * i
      i <- i + 1
    end
    print(a[0], " ", a[2], " ", a[4], " ", a.size())
    var r: Array[Real] <- new Array[Real](2)
    r[0] <- 1.5
    r[1] <- r[0] + 1
    print(r[1])
  end process
end Main
`, "0 4 16 5", "2.5")
}

func TestRealFormatsAcrossArchs(t *testing.T) {
	// The same program computes identical real values on VAX F-float and
	// IEEE machines (values chosen to be exact in both formats).
	expectOutput(t, `
object Main
  process
    var x: Real <- 0.5
    var y: Real <- x * 8 - 1.25
    print(y, " ", y == 2.75, " ", -y)
  end process
end Main
`, "2.75 true -2.75")
}

func TestSelfAndBareCalls(t *testing.T) {
	expectOutput(t, `
object Fib
  operation fib(n: Int) -> (r: Int)
    if n < 2 then
      r <- n
    else
      r <- fib(n - 1) + self.fib(n - 2)
    end
  end
end Fib
object Main
  process
    var f: Fib <- new Fib
    print(f.fib(15))
  end process
end Main
`, "610")
}

func TestMonitorsAndConditions(t *testing.T) {
	expectOutput(t, `
object Buffer
  monitor
    var item: Int <- 0
    var full: Bool <- false
    var nonempty: Condition
    var nonfull: Condition
    operation put(x: Int)
      while full do
        wait nonfull
      end
      item <- x
      full <- true
      signal nonempty
    end
    operation take() -> (r: Int)
      while !full do
        wait nonempty
      end
      r <- item
      full <- false
      signal nonfull
    end
  end monitor
end Buffer
object Producer
  var buf: Buffer
  var n: Int
  process
    var i: Int <- 1
    while i <= n do
      buf.put(i * 10)
      i <- i + 1
    end
  end process
end Producer
object Main
  var buf: Buffer
  initially
    buf <- new Buffer
  end initially
  process
    var p: Producer <- new Producer(buf, 3)
    print(buf.take())
    print(buf.take())
    print(buf.take())
    print(p == p)
  end process
end Main
`, "10", "20", "30", "true")
}

func TestNodesBuiltins(t *testing.T) {
	c := runSrc(t, `
object Main
  process
    print(nodes(), " ", thisnode(), " ", node(1), " ", thisnode() == node(0))
  end process
end Main
`, []netsim.MachineModel{mSPARC, mVAX}, DefaultConfig())
	if got := c.OutputText(); got != "2 node0 node1 true" {
		t.Errorf("output = %q", got)
	}
}

func TestRuntimeFaults(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"div0", `
object Main
  process
    var z: Int <- 0
    print(5 / z)
  end process
end Main`, "division by zero"},
		{"bounds", `
object Main
  process
    var a: Array[Int] <- new Array[Int](2)
    print(a[5])
  end process
end Main`, "out of bounds"},
		{"nilinvoke", `
object A
  operation f()
  end
end A
object Main
  process
    var a: A <- nil
    a.f()
  end process
end Main`, "on nil"},
		{"badnode", `
object Main
  process
    print(node(99))
  end process
end Main`, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compileSrc(t, tc.src)
			c, err := NewCluster(p, []netsim.MachineModel{mSPARC}, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			c.Start(nil)
			if err := c.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if len(c.Faults) != 1 {
				t.Fatalf("faults = %v", c.Faults)
			}
			if !strings.Contains(c.Faults[0].Msg, tc.frag) {
				t.Errorf("fault %q does not contain %q", c.Faults[0].Msg, tc.frag)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	src := `
object Worker
  var id: Int
  process
    var i: Int <- 0
    while i < 3 do
      print("worker ", id, " step ", i)
      yield()
      i <- i + 1
    end
  end process
end Worker
object Main
  process
    var a: Worker <- new Worker(1)
    var b: Worker <- new Worker(2)
    print(a == b)
  end process
end Main
`
	c1 := runSrc(t, src, []netsim.MachineModel{mSun3}, DefaultConfig())
	c2 := runSrc(t, src, []netsim.MachineModel{mSun3}, DefaultConfig())
	if c1.OutputText() != c2.OutputText() {
		t.Errorf("nondeterministic output:\n%s\nvs\n%s", c1.OutputText(), c2.OutputText())
	}
	if c1.Sim.Now() != c2.Sim.Now() {
		t.Errorf("nondeterministic time: %d vs %d", c1.Sim.Now(), c2.Sim.Now())
	}
}

// TestZeroConfigIsDefault: the zero Config is the standard configuration.
// NewCluster fills the zero cost model, memory size, stack size and slice
// budget with DefaultConfig's values, so kilroy's tour prints the same
// lines, emits the same event log and leaves every node's memory image
// byte-identical either way.
func TestZeroConfigIsDefault(t *testing.T) {
	src := kilroySrc(t)
	models := []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}
	zero := runSrc(t, src, models, Config{})
	def := runSrc(t, src, models, DefaultConfig())
	if got, want := zero.OutputText(), def.OutputText(); got != want || got == "" {
		t.Errorf("printed lines differ:\n%s\nvs default\n%s", got, want)
	}
	if !bytes.Equal(obs.EventLog(zero.Rec), obs.EventLog(def.Rec)) {
		t.Error("event logs differ from the default configuration's")
	}
	for i := range def.Nodes {
		if !bytes.Equal(zero.Nodes[i].Mem, def.Nodes[i].Mem) {
			t.Errorf("node %d memory image differs from the default configuration's", i)
		}
	}
}

func TestSimulatedTimeAdvances(t *testing.T) {
	c := runSrc(t, `
object Main
  process
    var t0: Int <- timems()
    var i: Int <- 0
    while i < 100000 do
      i <- i + 1
    end
    var t1: Int <- timems()
    print(t1 > t0)
  end process
end Main
`, []netsim.MachineModel{mVAX}, DefaultConfig())
	if c.OutputText() != "true" {
		t.Errorf("time did not advance: %s", c.OutputText())
	}
}

func TestIdenticalOutputAcrossArchitectures(t *testing.T) {
	// A broad workload must produce byte-identical output on all three
	// ISAs despite different endianness, float formats and code.
	src := `
object Acc
  var total: Int <- 0
  operation add(v: Int) -> (r: Int)
    total <- total + v
    r <- total
  end
end Acc
object Main
  process
    var acc: Acc <- new Acc
    var xs: Array[Int] <- new Array[Int](10)
    var i: Int <- 0
    while i < 10 do
      xs[i] <- i * 3 + 1
      i <- i + 1
    end
    i <- 0
    var last: Int <- 0
    while i < 10 do
      last <- acc.add(xs[i])
      i <- i + 1
    end
    print("total=", last)
    var msg: String <- "n=" + str(last) + " r=" + str(2.5 * last)
    print(msg)
  end process
end Main
`
	var outs []string
	for _, m := range []netsim.MachineModel{mVAX, mSun3, mSPARC} {
		c := runSrc(t, src, []netsim.MachineModel{m}, DefaultConfig())
		outs = append(outs, c.OutputText())
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Errorf("outputs differ:\nvax: %s\nm68k: %s\nsparc: %s", outs[0], outs[1], outs[2])
	}
	if !strings.Contains(outs[0], "total=145") {
		t.Errorf("wrong total: %s", outs[0])
	}
}
