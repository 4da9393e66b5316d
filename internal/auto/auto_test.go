package auto

import (
	"strings"
	"testing"
)

// view builds a View with the given objects on their nodes.
func view(now int64, nodes int, objs ...ObjInfo) View {
	return View{Now: now, Nodes: nodes, Instrs: make([]uint64, nodes), Objects: objs}
}

// TestGreedyColocateAccumulates: traffic below the MinCalls gate in any one
// window must still trigger a move once the accumulated total crosses it,
// and the moved object's history must reset.
func TestGreedyColocateAccumulates(t *testing.T) {
	eng := NewEngine(&GreedyColocate{MinCalls: 4, MaxMoves: 4})
	obj := ObjInfo{OID: 9, Class: "Service", Node: 0}

	// Cumulative counters: 2 calls per window from node 1.
	for tick, cum := range []uint64{2, 4} {
		v := view(int64(tick+1)*1000, 2, obj)
		v.ObjCalls = []ObjCall{{OID: 9, Src: 1, Count: cum}}
		decs := eng.Tick(v)
		if tick == 0 && len(decs) != 0 {
			t.Fatalf("tick 0: decided %v below the accumulated gate", decs)
		}
		if tick == 1 {
			if len(decs) != 1 || decs[0].Obj != 9 || decs[0].To != 1 {
				t.Fatalf("tick 1: decisions = %v, want move obj 9 to node 1", decs)
			}
		}
	}

	// After the move (object now on node 1) the history restarted: the same
	// per-window trickle must not immediately bounce it back.
	obj.Node = 1
	v := view(3000, 2, obj)
	v.ObjCalls = []ObjCall{{OID: 9, Src: 0, Count: 2}} // delta 2 from node 0
	if decs := eng.Tick(v); len(decs) != 0 {
		t.Fatalf("post-move tick: decided %v from a reset accumulator", decs)
	}
}

// TestEnginePinnedAndInvalidFiltered: pinned objects and malformed targets
// never reach the decision log.
func TestEnginePinnedAndInvalidFiltered(t *testing.T) {
	eng := NewEngine(&GreedyColocate{MinCalls: 1, MaxMoves: 8})
	v := view(1000, 2,
		ObjInfo{OID: 1, Class: "A", Node: 0, Pinned: true},
		ObjInfo{OID: 2, Class: "B", Node: 0})
	v.ObjCalls = []ObjCall{{OID: 1, Src: 1, Count: 10}, {OID: 2, Src: 1, Count: 10}}
	decs := eng.Tick(v)
	if len(decs) != 1 || decs[0].Obj != 2 {
		t.Fatalf("decisions = %v, want only the unpinned obj 2", decs)
	}
	if len(eng.Log()) != 1 || !strings.Contains(eng.Log()[0], "obj 2 (B)") {
		t.Fatalf("log = %v, want one line for obj 2", eng.Log())
	}
}

// TestLoadBalanceSheds: a hot node above the ratio sheds its hottest
// movable object to the coldest node, never a pinned one.
func TestLoadBalanceSheds(t *testing.T) {
	eng := NewEngine(&LoadBalance{MinInstrs: 1000, Ratio: 2})
	v := view(1000, 3,
		ObjInfo{OID: 5, Class: "Hot", Node: 0, Pinned: true},
		ObjInfo{OID: 6, Class: "Warm", Node: 0})
	v.Instrs = []uint64{5000, 400, 100}
	v.ObjCalls = []ObjCall{{OID: 5, Src: 1, Count: 9}, {OID: 6, Src: 1, Count: 3}}
	decs := eng.Tick(v)
	if len(decs) != 1 || decs[0].Obj != 6 || decs[0].From != 0 || decs[0].To != 2 {
		t.Fatalf("decisions = %v, want unpinned obj 6 shed from node 0 to node 2", decs)
	}
	// Balanced load: no shed.
	v2 := view(2000, 3, ObjInfo{OID: 6, Class: "Warm", Node: 2})
	v2.Instrs = []uint64{6000, 1400, 1100} // deltas 1000/1000/1000
	if decs := eng.Tick(v2); len(decs) != 0 {
		t.Fatalf("balanced tick decided %v", decs)
	}
}

// TestNewRejectsUnknown: the constructor names its valid policies.
func TestNewRejectsUnknown(t *testing.T) {
	if _, err := New("nope"); err == nil || !strings.Contains(err.Error(), "greedy-colocate") {
		t.Fatalf("New(nope) err = %v, want an error listing the policies", err)
	}
	for _, name := range Names() {
		if _, err := New(name); err != nil {
			t.Errorf("New(%s): %v", name, err)
		}
	}
}
