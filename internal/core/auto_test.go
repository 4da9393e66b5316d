// Adaptive-placement core tests: deterministic decision logs, the static
// fact translation (pta cohorts and pinned classes to class names), and
// the option-validation edges.

package core

import (
	"strings"
	"testing"

	"repro/internal/auto/workgen"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// TestAutoDecisionLogDeterministic: the same generated workload under the
// same policy must produce a byte-identical decision log and event log on
// every run (the CI race target runs this under -race, so the guarantee
// also holds with the runtime's scheduler shaking the host).
func TestAutoDecisionLogDeterministic(t *testing.T) {
	src := workgen.Generate(workgen.Config{Seed: 7, Services: 3, Sessions: 2, Requests: 12, Nodes: 3})
	run := func() (string, []byte) {
		sys, err := RunSource(src, Figure1Network(), Options{Config: kernel.Config{AutoPolicy: "greedy-colocate"}})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return strings.Join(sys.AutoDecisionLog(), "\n"), obs.EventLog(sys.Recorder())
	}
	log1, ev1 := run()
	log2, ev2 := run()
	if log1 != log2 {
		t.Errorf("decision logs differ:\n--- run1\n%s\n--- run2\n%s", log1, log2)
	}
	if string(ev1) != string(ev2) {
		t.Errorf("event logs differ (%d vs %d bytes)", len(ev1), len(ev2))
	}
	if log1 == "" {
		t.Error("policy made no decisions; the determinism check is vacuous")
	}
}

// TestAutoPolicyValidation: unknown policies and the parallel engine are
// rejected up front.
func TestAutoPolicyValidation(t *testing.T) {
	src := "object Main\n  process\n    print(1)\n  end process\nend Main\n"
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(prog, Figure1Network(), Options{Config: kernel.Config{AutoPolicy: "nope"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewSystem(prog, Figure1Network(), Options{Config: kernel.Config{AutoPolicy: "greedy-colocate"}, Parallel: true}); err == nil {
		t.Error("auto + parallel accepted; the policy tick needs the sequential engine")
	}
}

// TestAutoFactsCohortsAndPinned: the site-label translation must surface
// the {Service, Stats} allocation cohort and pin every class a fix
// statement reaches.
func TestAutoFactsCohortsAndPinned(t *testing.T) {
	src := `
object Stats
  var total: Int <- 0
  operation note(x: Int)
    total <- total + x
  end
end Stats

object Service
  var stats: Stats
  operation work(x: Int) -> (r: Int)
    stats.note(x)
    r <- x
  end
  initially
    stats <- new Stats
  end initially
end Service

object Anchor
  var n: Int <- 0
end Anchor

object Main
  var s: Service
  var a: Anchor
  initially
    s <- new Service
    a <- new Anchor
  end initially
  process
    fix a at thisnode()
    print(s.work(3))
  end process
end Main
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cohorts, pinned, err := AutoFacts(prog)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, set := range cohorts {
		if strings.Join(set, "|") == "Service|Stats" {
			found = true
		}
	}
	if !found {
		t.Errorf("cohorts = %v, want one {Service, Stats} set", cohorts)
	}
	gotPinned := strings.Join(pinned, ",")
	if !strings.Contains(gotPinned, "Anchor") {
		t.Errorf("pinned = %v, want Anchor (reached by fix)", pinned)
	}
}
