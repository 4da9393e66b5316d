package core

import (
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/netsim"
)

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := Compile("object M\n  operation f(\nend M"); err == nil ||
		!strings.Contains(err.Error(), "parse") {
		t.Errorf("parse error not surfaced: %v", err)
	}
	if _, err := Compile(`
object M
  operation f() -> (r: Int)
    r <- "x"
  end
end M`); err == nil || !strings.Contains(err.Error(), "typecheck") {
		t.Errorf("type error not surfaced: %v", err)
	}
}

func TestRunSourceQuickstart(t *testing.T) {
	sys, err := RunSource(`
object Main
  process
    print("n=", nodes())
  end process
end Main
`, Figure1Network(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Output() != "n=4" {
		t.Errorf("output = %q", sys.Output())
	}
	if sys.ElapsedMS() <= 0 {
		t.Error("no simulated time elapsed")
	}
}

func TestFaultsBecomeErrors(t *testing.T) {
	_, err := RunSource(`
object Main
  process
    var z: Int <- 0
    print(1 / z)
  end process
end Main
`, []netsim.MachineModel{netsim.SPARCstationSLC}, Options{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("fault not surfaced: %v", err)
	}
}

func TestPlacement(t *testing.T) {
	sys, err := RunSource(`
object Main
  process
    print(thisnode())
  end process
end Main
`, Figure1Network(), Options{
		Placement: func(name string, i int) int { return 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Output() != "node2" {
		t.Errorf("output = %q", sys.Output())
	}
}

func TestFigure1NetworkShape(t *testing.T) {
	net := Figure1Network()
	if len(net) != 4 {
		t.Fatalf("nodes = %d", len(net))
	}
	archs := map[byte]bool{}
	for _, m := range net {
		archs[m.Arch] = true
	}
	if len(archs) != 3 {
		t.Errorf("figure 1 must span all three ISAs, got %d", len(archs))
	}
}

func TestModeThreading(t *testing.T) {
	prog, err := Compile(`
object Main
  process
    print("x")
  end process
end Main`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(prog, Figure1Network(), Options{Config: kernel.Config{Mode: kernel.ModeOriginal}}); err == nil {
		t.Error("original mode on a heterogeneous network must be rejected")
	}
}
