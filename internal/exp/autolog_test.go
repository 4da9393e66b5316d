// The placement study's decision logs, pinned line for line. BENCH_auto.json
// gates only counts (within 20%); these goldens pin what each policy arm
// decided, when, and why, on the study's fixed workload. Regenerate with
//
//	go test ./internal/exp -run TestAutoStudyDecisionLogs -update
package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/auto/workgen"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the .golden files")

func TestAutoStudyDecisionLogs(t *testing.T) {
	src := workgen.Generate(autoWorkload)
	arms := []struct {
		golden, policy string
		noBatch        bool
		decisions      int
	}{
		{"auto_load-balance.golden", "load-balance", false, 3},
		{"auto_greedy-colocate.golden", "greedy-colocate", false, 8},
		{"auto_greedy-colocate-nobatch.golden", "greedy-colocate", true, 10},
	}
	for _, a := range arms {
		t.Run(a.golden, func(t *testing.T) {
			sys, err := core.RunSource(src, core.Figure1Network(), core.Options{
				AutoPolicy: a.policy, AutoNoBatch: a.noBatch,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := sys.AutoDecisionLog()
			if len(got) != a.decisions {
				t.Errorf("%d decisions, want %d", len(got), a.decisions)
			}
			path := filepath.Join("testdata", a.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			if len(got) != len(want) {
				t.Errorf("log has %d lines, golden %d", len(got), len(want))
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
				}
			}
		})
	}
}
