package dir

import (
	"testing"

	"repro/internal/oid"
)

func TestNormalizeAndQuorum(t *testing.T) {
	c := Config{Replicas: 9, Shards: 0}.Normalize(4)
	if c.Replicas != 4 || c.Shards != 4 {
		t.Fatalf("normalize clamped to %+v", c)
	}
	if q := (Config{Replicas: 3}).Quorum(); q != 2 {
		t.Fatalf("quorum(3) = %d", q)
	}
	if q := (Config{Replicas: 1}).Quorum(); q != 1 {
		t.Fatalf("quorum(1) = %d", q)
	}
	if q := (Config{Replicas: 4}).Quorum(); q != 3 {
		t.Fatalf("quorum(4) = %d", q)
	}
}

func TestReplicaSetWraps(t *testing.T) {
	got := ReplicaSet(3, 3, 4)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("replica set %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica set %v, want %v", got, want)
		}
	}
}

func TestAcceptorPromiseOrdering(t *testing.T) {
	var a Acceptor
	ok, _, accBal, _ := a.Prepare(10)
	if !ok || accBal != 0 {
		t.Fatalf("first prepare refused")
	}
	if ok, promised, _, _ := a.Prepare(5); ok || promised != 10 {
		t.Fatalf("lower prepare accepted (ok=%v promised=%d)", ok, promised)
	}
	if ok, _ := a.Accept(10, 2); !ok {
		t.Fatalf("accept at promised ballot refused")
	}
	// A later prepare must surface the accepted value.
	ok, _, accBal, accNode := a.Prepare(20)
	if !ok || accBal != 10 || accNode != 2 {
		t.Fatalf("prepare(20) = ok=%v accBal=%d accNode=%d", ok, accBal, accNode)
	}
	// An accept below the new promise is refused.
	if ok, _ := a.Accept(10, 3); ok {
		t.Fatalf("stale accept succeeded")
	}
}

func TestStoreLearnMonotoneEpoch(t *testing.T) {
	s := NewStore()
	o := oid.ForRuntime(0, 1)
	if !s.Learn(o, 2, 1) {
		t.Fatalf("first learn rejected")
	}
	if s.Learn(o, 3, 1) {
		t.Fatalf("equal-epoch learn overwrote")
	}
	if s.Learn(o, 3, 0) {
		t.Fatalf("older-epoch learn overwrote")
	}
	if !s.Learn(o, 3, 2) {
		t.Fatalf("newer-epoch learn rejected")
	}
	r, ok := s.Lookup(o)
	if !ok || r.Node != 3 || r.Epoch != 2 {
		t.Fatalf("lookup = %+v ok=%v", r, ok)
	}
	if _, ok := s.Lookup(oid.ForRuntime(1, 9)); ok {
		t.Fatalf("lookup of unknown object hit")
	}
}

// one is a one-slot decree list: the classic single-decree synod.
func one(o oid.OID, epoch uint32, home int32) []Decree {
	return []Decree{{Slot: Slot{OID: o, Epoch: epoch}, Home: home}}
}

// promise feeds one positive promise carrying the replica's per-slot
// accepted state (parallel to the proposal's canonical slots).
func promise(p *Proposal, ballot uint64, bals []uint64, nodes []int32) bool {
	return p.OnPromise(ballot, true, ballot, len(bals), func(i int) (uint64, int32) { return bals[i], nodes[i] })
}

// nack feeds one negative promise blocked at ballot promised.
func nack(p *Proposal, ballot, promised uint64) bool {
	return p.OnPromise(ballot, false, promised, p.Len(), func(int) (uint64, int32) { return 0, -1 })
}

func TestProposalHappyPath(t *testing.T) {
	p := NewProposal(one(5, 2, 3), 0, 2)
	b := p.Start()
	if b == 0 {
		t.Fatalf("zero ballot")
	}
	if promise(p, b, []uint64{0}, []int32{-1}) {
		t.Fatalf("quorum after one promise")
	}
	if !promise(p, b, []uint64{0}, []int32{-1}) {
		t.Fatalf("no quorum after two promises")
	}
	if v := p.Chosen(0); v != 3 {
		t.Fatalf("chose %d, want own value 3", v)
	}
	if p.OnAccepted(b, true, 0) {
		t.Fatalf("chosen after one accept")
	}
	if !p.OnAccepted(b, true, 0) {
		t.Fatalf("not chosen after quorum accepts")
	}
	if !p.Done() {
		t.Fatalf("not done after chosen")
	}
}

func TestProposalAdoptsAcceptedValue(t *testing.T) {
	p := NewProposal(one(5, 2, 3), 0, 2)
	b := p.Start()
	promise(p, b, []uint64{7}, []int32{1}) // a replica already accepted value 1 at ballot 7
	promise(p, b, []uint64{0}, []int32{-1})
	if v := p.Chosen(0); v != 1 {
		t.Fatalf("chose %d, want adopted value 1", v)
	}
}

func TestProposalRestartJumpsNacks(t *testing.T) {
	p := NewProposal(one(5, 2, 3), 0, 2)
	b := p.Start()
	// Nacked: someone promised a much higher ballot.
	if nack(p, b, 99<<16) {
		t.Fatalf("nack advanced phase")
	}
	b2 := p.Start()
	if b2 <= 99<<16 {
		t.Fatalf("restart ballot %d did not jump past nacked ballot", b2)
	}
	// Stale replies from the old round are ignored.
	if promise(p, b, []uint64{0}, []int32{-1}) {
		t.Fatalf("stale-round promise counted")
	}
	if !promise(p, b2, []uint64{0}, []int32{-1}) || p.Done() {
		// first promise of round 2; need one more
		if p.Done() {
			t.Fatalf("done too early")
		}
	}
}

func TestProposalDistinctBallotsPerNode(t *testing.T) {
	a := NewProposal(one(1, 1, 0), 0, 1).Start()
	b := NewProposal(one(1, 1, 0), 1, 1).Start()
	if a == b {
		t.Fatalf("two proposers issued the same ballot %d", a)
	}
}

func TestShardOfStable(t *testing.T) {
	o := oid.ForRuntime(2, 7)
	if ShardOf(o, 4) != ShardOf(o, 4) {
		t.Fatalf("shard not stable")
	}
	if s := ShardOf(o, 4); s < 0 || s > 3 {
		t.Fatalf("shard %d out of range", s)
	}
}

func TestNormalizeDiagEdges(t *testing.T) {
	// Replicas above the cluster size clamp with a diagnostic.
	c, diags := Config{Replicas: 9}.NormalizeDiag(4)
	if c.Replicas != 4 || len(diags) != 1 {
		t.Fatalf("over-cluster: cfg=%+v diags=%v", c, diags)
	}
	// Negative replicas are invalid and fall back to 1, with a diagnostic.
	c, diags = Config{Replicas: -3}.NormalizeDiag(4)
	if c.Replicas != 1 || len(diags) != 1 {
		t.Fatalf("negative: cfg=%+v diags=%v", c, diags)
	}
	// Zero is the documented "default" request: no diagnostic.
	c, diags = Config{Replicas: 0, Shards: 0}.NormalizeDiag(4)
	if c.Replicas != 1 || c.Shards != 4 || len(diags) != 0 {
		t.Fatalf("defaults: cfg=%+v diags=%v", c, diags)
	}
	// Shard edges mirror the replica edges.
	c, diags = Config{Replicas: 2, Shards: 9}.NormalizeDiag(4)
	if c.Shards != 4 || len(diags) != 1 {
		t.Fatalf("over-cluster shards: cfg=%+v diags=%v", c, diags)
	}
	c, diags = Config{Replicas: 2, Shards: -1}.NormalizeDiag(4)
	if c.Shards != 4 || len(diags) != 1 {
		t.Fatalf("negative shards: cfg=%+v diags=%v", c, diags)
	}
}

func TestPlaceReplicasUniformMatchesReplicaSet(t *testing.T) {
	// With no cost function (uniform topology) the locality-aware placement
	// must reproduce the historic consecutive sets exactly, for every shard
	// and replica count.
	for nodes := 1; nodes <= 6; nodes++ {
		for replicas := 1; replicas <= nodes; replicas++ {
			for shard := 0; shard < nodes; shard++ {
				got := PlaceReplicas(shard, replicas, nodes, nil)
				want := ReplicaSet(shard, replicas, nodes)
				if len(got) != len(want) {
					t.Fatalf("n=%d r=%d s=%d: %v vs %v", nodes, replicas, shard, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d r=%d s=%d: %v vs %v", nodes, replicas, shard, got, want)
					}
				}
			}
		}
	}
}

func TestPlaceReplicasPrefersLowLatencyPeers(t *testing.T) {
	// 5 nodes; node 0's link to node 1 is slow, its link to node 3 fast.
	// The shard anchored at 0 should seat node 3 ahead of nodes 1 and 2.
	slow := map[[2]int]int64{{0, 1}: 500, {0, 2}: 200, {0, 4}: 900}
	cost := func(a, b int) int64 {
		if a > b {
			a, b = b, a
		}
		return slow[[2]int{a, b}]
	}
	got := PlaceReplicas(0, 3, 5, cost)
	want := []int{0, 2, 3} // anchor 0, then node 3 (cost 0) and node 2 (cost 200)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement %v, want %v", got, want)
		}
	}
	// The anchor is always a member even when its links are all expensive.
	got = PlaceReplicas(4, 2, 5, cost)
	found := false
	for _, n := range got {
		if n == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("anchor 4 missing from %v", got)
	}
}

func TestProposalMultiSlotSortsAndChooses(t *testing.T) {
	// Slots arrive unsorted; the proposal canonicalizes them with their
	// homes kept alongside.
	p := NewProposal([]Decree{
		{Slot: Slot{OID: 9, Epoch: 1}, Home: 2},
		{Slot: Slot{OID: 3, Epoch: 2}, Home: 3},
		{Slot: Slot{OID: 3, Epoch: 1}, Home: 1},
	}, 0, 2)
	wantSlots := []Slot{{OID: 3, Epoch: 1}, {OID: 3, Epoch: 2}, {OID: 9, Epoch: 1}}
	wantVals := []int32{1, 3, 2}
	if p.Len() != len(wantSlots) {
		t.Fatalf("Len = %d", p.Len())
	}
	for i := range wantSlots {
		if p.Slot(i) != wantSlots[i] || p.Chosen(i) != wantVals[i] {
			t.Fatalf("slot %d = %v home %d, want %v home %d", i, p.Slot(i), p.Chosen(i), wantSlots[i], wantVals[i])
		}
	}
	b := p.Start()
	none := []uint64{0, 0, 0}
	noneV := []int32{-1, -1, -1}
	if promise(p, b, none, noneV) {
		t.Fatalf("quorum after one promise")
	}
	if !promise(p, b, none, noneV) {
		t.Fatalf("no quorum after two promises")
	}
	for i := range wantVals {
		if p.Chosen(i) != wantVals[i] {
			t.Fatalf("slot %d chose %d, want own value %d", i, p.Chosen(i), wantVals[i])
		}
	}
	if p.OnAccepted(b, true, 0) {
		t.Fatalf("chosen after one accept")
	}
	if !p.OnAccepted(b, true, 0) || !p.Done() {
		t.Fatalf("not chosen after quorum accepts")
	}
}

func TestProposalMultiSlotAdoptsPerSlot(t *testing.T) {
	p := NewProposal([]Decree{{Slot: Slot{OID: 1, Epoch: 1}, Home: 3}, {Slot: Slot{OID: 2, Epoch: 1}, Home: 3}}, 0, 2)
	b := p.Start()
	// One replica already accepted value 1 for the second slot at ballot 7.
	promise(p, b, []uint64{0, 7}, []int32{-1, 1})
	promise(p, b, []uint64{0, 0}, []int32{-1, -1})
	if p.Chosen(0) != 3 || p.Chosen(1) != 1 {
		t.Fatalf("chose [%d %d], want [3 1]", p.Chosen(0), p.Chosen(1))
	}
}

func TestProposalMultiSlotNackAndRestart(t *testing.T) {
	p := NewProposal([]Decree{{Slot: Slot{OID: 1, Epoch: 1}, Home: 3}, {Slot: Slot{OID: 2, Epoch: 1}, Home: 3}}, 0, 2)
	b := p.Start()
	if nack(p, b, 50<<16) {
		t.Fatalf("nack advanced phase")
	}
	b2 := p.Start()
	if b2 <= 50<<16 {
		t.Fatalf("restart ballot %d did not jump past nack", b2)
	}
	// Stale and malformed replies are ignored.
	if promise(p, b, []uint64{0, 0}, []int32{-1, -1}) {
		t.Fatalf("stale-round promise counted")
	}
	if promise(p, b2, []uint64{0}, []int32{-1}) {
		t.Fatalf("short reply counted")
	}
	promise(p, b2, []uint64{0, 0}, []int32{-1, -1})
	if !promise(p, b2, []uint64{0, 0}, []int32{-1, -1}) {
		t.Fatalf("no quorum after two fresh promises")
	}
}
