// Package dir implements the replicated object-location directory (emdir).
//
// The paper's kernels locate objects by chasing forwarding addresses left
// behind by moves (§4.3); a crash in the middle of a chain orphans every
// proxy pointing through the dead node. emdir replaces the chain as the
// primary location mechanism with sharded ownership records — OID → (home
// node, epoch) — replicated across a small replica set and updated by a
// Paxos decree per move commit. Each move of an object is its own consensus
// instance, keyed by the (oid, epoch) slot the move's epoch bump created,
// so decrees from different moves never collide and a decree is immutable
// once chosen. A decree round covers one slot, or several slots sharing a
// replica set (a MoveGroup cohort) under one ballot; a one-slot round is
// the classic single-decree synod. After a crash/restart a locate is one
// shard query instead of a forwarding-address walk; the chase survives only
// as the degraded-mode fallback.
//
// This package holds the pure protocol state machines — acceptor, learner
// store, proposer — with no I/O and no time: the kernel drives message
// exchange over the simulated network (internal/kernel/dir.go) so directory
// traffic is charged and fault-injected like any other kernel traffic. The
// protocol shape follows the classic single-decree synod (cf. the paxos lab
// exemplar named in ROADMAP.md): prepare/promise, accept/accepted, learn.
package dir

import (
	"fmt"
	"sort"

	"repro/internal/oid"
)

// Config sizes the directory.
type Config struct {
	// Replicas is the replica-set size per shard (clamped to node count).
	Replicas int
	// Shards is the number of shards; records hash to shards by OID.
	Shards int
}

// Normalize clamps the configuration to a cluster of n nodes: at least one
// replica, no more replicas than nodes, and one shard per node by default.
func (c Config) Normalize(n int) Config {
	c, _ = c.NormalizeDiag(n)
	return c
}

// NormalizeDiag is Normalize plus a diagnostic line per clamp, so callers
// holding a user-supplied configuration (emrun -dir n) can report what was
// adjusted instead of silently mis-sharding.
func (c Config) NormalizeDiag(n int) (Config, []string) {
	var diags []string
	if c.Shards < 0 {
		diags = append(diags, fmt.Sprintf("dir: %d shards invalid; using %d (one per node)", c.Shards, n))
	}
	if c.Shards <= 0 {
		c.Shards = n
	}
	if c.Shards > n {
		diags = append(diags, fmt.Sprintf("dir: %d shards exceed the %d-node cluster; clamped to %d", c.Shards, n, n))
		c.Shards = n
	}
	if c.Replicas < 0 {
		diags = append(diags, fmt.Sprintf("dir: %d replicas invalid; using 1", c.Replicas))
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > n {
		diags = append(diags, fmt.Sprintf("dir: %d replicas exceed the %d-node cluster; clamped to %d", c.Replicas, n, n))
		c.Replicas = n
	}
	return c, diags
}

// Quorum is the majority size of a replica set.
func (c Config) Quorum() int { return c.Replicas/2 + 1 }

// ShardOf maps an OID to its shard.
func ShardOf(o oid.OID, shards int) int {
	return int(uint32(o) % uint32(shards))
}

// ReplicaSet returns the (sorted) node IDs replicating a shard: the
// consecutive run of nodes starting at the shard index, wrapping mod n.
func ReplicaSet(shard, replicas, nodes int) []int {
	if replicas > nodes {
		replicas = nodes
	}
	set := make([]int, replicas)
	for i := range set {
		set[i] = (shard + i) % nodes
	}
	sort.Ints(set)
	return set
}

// PlaceReplicas chooses a shard's (sorted) replica set with locality
// awareness: the shard's anchor node is always a member, and the remaining
// replicas-1 seats go to the peers with the lowest cost(anchor, peer) —
// the kernel passes per-link extra latency from the netsim topology. Ties
// break by ring distance from the anchor, so on a uniform topology (every
// extra latency zero, or cost nil) the placement degenerates to exactly
// ReplicaSet's consecutive run: topology-free clusters keep their historic
// layout byte for byte.
func PlaceReplicas(shard, replicas, nodes int, cost func(a, b int) int64) []int {
	if replicas > nodes {
		replicas = nodes
	}
	if replicas < 1 {
		replicas = 1
	}
	anchor := shard % nodes
	type seat struct {
		node int
		cost int64
		ring int // distance from the anchor walking the ring forward
	}
	cands := make([]seat, 0, nodes-1)
	for i := 1; i < nodes; i++ {
		p := (anchor + i) % nodes
		var c int64
		if cost != nil {
			c = cost(anchor, p)
		}
		cands = append(cands, seat{node: p, cost: c, ring: i})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].ring < cands[j].ring
	})
	set := make([]int, 0, replicas)
	set = append(set, anchor)
	for _, s := range cands[:replicas-1] {
		set = append(set, s.node)
	}
	sort.Ints(set)
	return set
}

// Slot names one consensus instance: the decree that object o's move to
// epoch e landed on a particular home node. Epoch bumps on every move, so
// each move gets a fresh slot.
type Slot struct {
	OID   oid.OID
	Epoch uint32
}

// Less orders slots for deterministic iteration.
func (s Slot) Less(t Slot) bool {
	if s.OID != t.OID {
		return s.OID < t.OID
	}
	return s.Epoch < t.Epoch
}

// SortSlots sorts a slot slice in canonical order.
func SortSlots(ss []Slot) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Less(ss[j]) })
}

// Record is one ownership record: where an object lives as of an epoch.
type Record struct {
	Node  int32
	Epoch uint32
}

// Acceptor is the per-slot acceptor state held by each replica.
type Acceptor struct {
	Promised uint64 // highest ballot promised
	AccBal   uint64 // ballot of the accepted value, 0 if none
	AccNode  int32  // accepted value (home node)
}

// Prepare handles a prepare(ballot) request. On success it promises the
// ballot and reports any previously accepted (ballot, value) so the
// proposer can adopt it; on failure it reports the ballot that blocked.
func (a *Acceptor) Prepare(ballot uint64) (ok bool, promised, accBal uint64, accNode int32) {
	if ballot <= a.Promised {
		return false, a.Promised, 0, -1
	}
	a.Promised = ballot
	return true, ballot, a.AccBal, a.AccNode
}

// Accept handles an accept(ballot, node) request: accepted iff the ballot
// is at least the promise.
func (a *Acceptor) Accept(ballot uint64, node int32) (ok bool, promised uint64) {
	if ballot < a.Promised {
		return false, a.Promised
	}
	a.Promised = ballot
	a.AccBal = ballot
	a.AccNode = node
	return true, ballot
}

// Store is the learner state: chosen ownership records, one per object,
// monotone in epoch. Replicas answer lookups from here.
type Store struct {
	recs map[oid.OID]Record
}

// NewStore returns an empty record store.
func NewStore() *Store { return &Store{recs: make(map[oid.OID]Record)} }

// Learn applies a chosen decree. Only strictly newer epochs overwrite (the
// same guard proxies apply to UpdateLoc hints), so replayed or reordered
// learns are harmless.
func (s *Store) Learn(o oid.OID, node int32, epoch uint32) bool {
	if r, ok := s.recs[o]; ok && epoch <= r.Epoch {
		return false
	}
	s.recs[o] = Record{Node: node, Epoch: epoch}
	return true
}

// Lookup answers the current record for an object, if any decree chose one.
func (s *Store) Lookup(o oid.OID) (Record, bool) {
	r, ok := s.recs[o]
	return r, ok
}

// Len reports how many objects have records.
func (s *Store) Len() int { return len(s.recs) }

// OIDs returns the recorded object IDs in sorted order (for deterministic
// iteration in tests and debug dumps).
func (s *Store) OIDs() []oid.OID {
	out := make([]oid.OID, 0, len(s.recs))
	for o := range s.recs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Proposal phases.
const (
	phaseIdle = iota
	phasePrepare
	phaseAccept
	phaseDone
)

// Decree is one slot's desired record: the proposer wants the slot's object
// recorded at Home.
type Decree struct {
	Slot
	Home int32
}

// slotState is a proposal's per-slot state: the desired record plus the
// highest accepted (ballot, home) the current round's promises reported.
type slotState struct {
	Decree
	accBal  uint64
	accNode int32
}

// Proposal is the proposer side of one decree round over one or more slots
// sharing a shard replica set: a solo move's record, or a MoveGroup
// cohort's records committing under a single ballot with one set of
// prepare/accept messages instead of one round per member. Each slot still
// has exactly one proposer (the move source that created it), so per-slot
// safety reduces to the single-decree synod argument; a one-slot proposal
// is exactly the classic synod. A replica promises or accepts only when
// every slot passes its acceptor check, and a promise reports per-slot
// accepted values so a retry after a partial earlier round adopts them slot
// by slot. The kernel owns message exchange and timeouts; this struct owns
// ballots, quorum counting and value adoption.
type Proposal struct {
	Quorum int
	Ballot uint64 // current ballot, valid after Start

	self     int32 // proposer node id, disambiguates ballots
	attempt  uint32
	maxSeen  uint64 // highest ballot observed in nacks
	phase    int
	promises int
	accepts  int
	progress uint64 // counts every reply that advanced the current round
	slots    []slotState
}

// NewProposal builds a proposal for the given decrees, sorted into
// canonical slot order (the order every replica and every rerun observes).
func NewProposal(ds []Decree, self int32, quorum int) *Proposal {
	p := &Proposal{Quorum: quorum, self: self, slots: make([]slotState, len(ds))}
	for i, d := range ds {
		p.slots[i] = slotState{Decree: d, accNode: -1}
	}
	if len(ds) > 1 {
		sort.Slice(p.slots, func(i, j int) bool { return p.slots[i].Slot.Less(p.slots[j].Slot) })
	}
	return p
}

// Len reports how many slots the proposal decrees.
func (p *Proposal) Len() int { return len(p.slots) }

// Slot returns slot i in canonical order; slot 0 names the proposal.
func (p *Proposal) Slot(i int) Slot { return p.slots[i].Slot }

// Start begins the next prepare round and returns its ballot. Ballots embed
// the proposer id so concurrent proposers never collide, and each restart
// jumps past every ballot observed in nacks.
func (p *Proposal) Start() uint64 {
	for {
		p.attempt++
		b := uint64(p.attempt)<<16 | uint64(uint16(p.self+1))
		if b > p.maxSeen {
			p.Ballot = b
			break
		}
		if p.maxSeen>>16 > uint64(p.attempt) {
			p.attempt = uint32(p.maxSeen >> 16)
		}
	}
	p.phase = phasePrepare
	p.promises = 0
	p.accepts = 0
	for i := range p.slots {
		p.slots[i].accBal = 0
		p.slots[i].accNode = -1
	}
	return p.Ballot
}

// Attempt reports how many prepare rounds have started.
func (p *Proposal) Attempt() int { return int(p.attempt) }

// Progress counts replies that advanced the current round. A timeout driver
// can compare snapshots of it to tell a round that is merely slower than
// the timeout window (replies still arriving — leave the ballot alone) from
// one that is truly stuck (nothing arrived — restart with a higher ballot).
func (p *Proposal) Progress() uint64 { return p.progress }

// Done reports whether the decree has been chosen.
func (p *Proposal) Done() bool { return p.phase == phaseDone }

// OnPromise processes one promise (or nack) for the given ballot. A promise
// covers n slots, and acc(i) reports the replica's accepted (ballot, home)
// for slot i in canonical order; a promise whose slot count differs from
// the proposal's is malformed and ignored. It returns true exactly once,
// when the quorum of promises is reached and the proposer should broadcast
// accept(Ballot, Chosen(i) for every slot).
func (p *Proposal) OnPromise(ballot uint64, ok bool, promised uint64, n int, acc func(i int) (uint64, int32)) bool {
	if !ok {
		if promised > p.maxSeen {
			p.maxSeen = promised
		}
		return false
	}
	if p.phase != phasePrepare || ballot != p.Ballot || n != len(p.slots) {
		return false // stale round or malformed reply
	}
	for i := range p.slots {
		s := &p.slots[i]
		if accBal, accNode := acc(i); accBal > s.accBal {
			s.accBal = accBal
			s.accNode = accNode
		}
	}
	p.progress++
	p.promises++
	if p.promises < p.Quorum {
		return false
	}
	p.phase = phaseAccept
	return true
}

// Chosen is slot i's value for the accept phase: any value a quorum member
// already accepted wins over our own (the synod invariant), slot by slot.
func (p *Proposal) Chosen(i int) int32 {
	s := &p.slots[i]
	if s.accBal > 0 && s.accNode >= 0 {
		return s.accNode
	}
	return s.Home
}

// OnAccepted processes one accepted (or nack) reply. It returns true
// exactly once, when a quorum has accepted and the decree is chosen.
func (p *Proposal) OnAccepted(ballot uint64, ok bool, promised uint64) bool {
	if !ok {
		if promised > p.maxSeen {
			p.maxSeen = promised
		}
		return false
	}
	if p.phase != phaseAccept || ballot != p.Ballot {
		return false
	}
	p.progress++
	p.accepts++
	if p.accepts < p.Quorum {
		return false
	}
	p.phase = phaseDone
	return true
}
