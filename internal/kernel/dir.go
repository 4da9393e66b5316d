// Replicated object directory (emdir), active only when Config.DirReplicas
// > 0. Every committed move drives a Paxos decree round (see internal/dir)
// recording the object's new home across the replicas of its shard; a
// MoveGroup cohort's members whose shards share a replica set commit in one
// multi-slot round, and every other move in a one-slot round — one protocol
// with one driver, timers and handlers for both. Locates and stale-proxy
// re-resolution consult the directory first, and a per-node background
// compactor rewrites chained proxies so forwarding chains shrink to ≤1 hop.
// All directory traffic travels as ordinary protocol messages through
// sendMsg — charged, observed and fault-injected like any other kernel
// traffic — except that a node acting as a replica of its own query answers
// locally for just the syscall charge. Directory-off runs take none of
// these code paths: no messages, metrics, events or timers.
//
// Ordering with the two-phase move commit (twophase.go): under chaos the
// source proposes the decree only after the destination's positive MoveAck,
// and releases the object (commitMove) only once the decree resolves — so a
// chosen record never names a home that refused the install, and after a
// crash/restart a locate is one shard query. If the decree cannot complete
// (replica majority down), the round degrades after bounded attempts and
// the move commits anyway: availability of the move protocol is preserved
// and the forwarding-address chase covers the stale record. Chaos-off,
// delivery is certain and there are no competing proposers, so the decree
// is fire-and-forget at dispatch time.

package kernel

import (
	"fmt"
	"sort"

	"repro/internal/dir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// DefaultDirCompactMicros is the default compactor tick period.
const DefaultDirCompactMicros = 200000 // 200 simulated ms

// dirMaxAttempts bounds decree prepare rounds before degrading.
const dirMaxAttempts = 3

// dirCompactBatch bounds proxies refreshed per compactor tick.
const dirCompactBatch = 4

// armDir enables the directory: sizes the shard/replica layout, computes
// the locality-aware replica placement from the netsim topology, and arms
// the per-node compactors. Compactor ticks are weak events (they never keep
// a finished simulation alive), mirroring heartbeats.
func (c *Cluster) armDir() {
	c.dirOn = true
	c.dirCfg = dir.Config{Replicas: c.Config.DirReplicas}.Normalize(len(c.Nodes))
	// Replica placement is fixed for the run: every node derives the same
	// table from the same topology, so no placement messages are needed.
	// On a uniform topology PlaceReplicas reproduces the consecutive
	// ReplicaSet exactly; with latency-skewed links each shard anchor
	// recruits its lowest-latency peers.
	cost := func(a, b int) int64 { return int64(c.Net.LinkExtraLatency(a, b)) }
	c.dirPlace = make([][]int, c.dirCfg.Shards)
	for s := range c.dirPlace {
		c.dirPlace[s] = dir.PlaceReplicas(s, c.dirCfg.Replicas, len(c.Nodes), cost)
	}
	for _, n := range c.Nodes {
		n := n
		c.Sim.AtNodeWeak(n.ID, c.dirCompactPeriod(), n.dirCompactTick)
	}
}

func (c *Cluster) dirCompactPeriod() netsim.Micros {
	if c.Config.DirCompactPeriodMicros > 0 {
		return netsim.Micros(c.Config.DirCompactPeriodMicros)
	}
	return DefaultDirCompactMicros
}

// dirReplicasOf returns the replica set of o's shard (from the placement
// table armDir computed).
func (n *Node) dirReplicasOf(o oid.OID) []int {
	return n.cluster.dirPlace[dir.ShardOf(o, n.cluster.dirCfg.Shards)]
}

// dirLeasePeriod is the lease duration replicas grant on lookup hits
// (0: leases off).
func (c *Cluster) dirLeasePeriod() netsim.Micros {
	if c.Config.DirLeaseMicros > 0 {
		return netsim.Micros(c.Config.DirLeaseMicros)
	}
	return 0
}

// dirLease is one cached ownership record, granted by a shard replica with
// a simulated-time expiry. The holder drops it early when a learned decree
// or its own chosen decree supersedes the epoch, or when the recorded home
// becomes suspect.
type dirLease struct {
	node    int32
	epoch   uint32
	expires netsim.Micros
}

// dirInvalidateLease drops a cached lease superseded by a decree at epoch
// (epoch-fenced: replayed learns for older epochs leave a fresher lease
// alone).
func (n *Node) dirInvalidateLease(o oid.OID, epoch uint32) {
	if l, ok := n.dirLeases[o]; ok && epoch > l.epoch {
		delete(n.dirLeases, o)
	}
}

// dirSend routes a directory message: remote replicas through the normal
// (charged, reliable-under-chaos) send path, this node's own replica role
// synchronously for the syscall charge alone — the kernel never puts a
// frame on the medium addressed to itself.
func (n *Node) dirSend(dst int, p wire.Payload) {
	if dst == n.ID {
		n.charge(uint64(n.cluster.Costs.SyscallCycles))
		n.handleMsg(n.ID, p)
		return
	}
	n.sendMsg(dst, p)
}

// ------------------------------------------------------------- proposer

// dirProposal is the kernel side of one decree round the local node is
// driving — a solo move's slot, or a MoveGroup cohort's slots sharing one
// shard replica set: the pure synod state plus replica fan-out and the
// completion callback. Its first slot in canonical order keys it in
// dirProps and names it on the wire.
type dirProposal struct {
	p        *dir.Proposal
	replicas []int
	// more are the extra slots in wire form, and vals the same slots with
	// the current accept phase's values; both nil for a one-slot decree.
	more *[]wire.DirSlotRef
	vals *[]wire.DirSlotNode
	// done, if set, fires once, when the decree resolves (chosen or
	// degraded); the move commit gates on it under chaos.
	done func(chosen bool)
	// stalledTimer: the round timer fired while this node was down;
	// restart re-arms it.
	stalledTimer bool
}

// dirDecree is the decree recording tx's object at its destination as of
// the epoch its move created.
func dirDecree(tx *moveTxn) dir.Decree {
	return dir.Decree{Slot: dir.Slot{OID: tx.obj.OID, Epoch: tx.obj.Epoch}, Home: int32(tx.dest)}
}

// dirPropose starts the decree round recording each ds[i]'s object at its
// home. Every slot must map to the same shard replica set (dirProposeCohort
// guarantees it). done, if non-nil, fires when the decree resolves.
func (n *Node) dirPropose(ds []dir.Decree, done func(chosen bool)) {
	dp := &dirProposal{
		p:        dir.NewProposal(ds, int32(n.ID), n.cluster.dirCfg.Quorum()),
		replicas: n.dirReplicasOf(ds[0].OID),
		done:     done,
	}
	if len(ds) > 1 {
		more := make([]wire.DirSlotRef, len(ds)-1)
		for i := range more {
			s := dp.p.Slot(i + 1)
			more[i] = wire.DirSlotRef{Target: s.OID, Epoch: s.Epoch}
		}
		dp.more = &more
	}
	n.dirProps[dp.p.Slot(0)] = dp
	n.dirPrepareRound(dp)
}

// dirPrepareRound starts the next prepare round: a fresh ballot to every
// replica of the slots' shard. With a single-replica set containing this
// node the whole decree resolves synchronously inside the first dirSend, so
// the fan-out re-checks that the proposal is still the live one.
func (n *Node) dirPrepareRound(dp *dirProposal) {
	key := dp.p.Slot(0)
	msg := &wire.DirPrepare{Target: key.OID, Epoch: key.Epoch, Ballot: dp.p.Start(), More: dp.more}
	for _, r := range dp.replicas {
		if n.dirProps[key] != dp {
			return
		}
		n.dirSend(r, msg)
	}
	n.armDirTimer(dp)
}

// armDirTimer watches one decree round (chaos only — without faults every
// round completes). A window that saw replies arrive means the round is
// merely slower than the window — keep the ballot and wait another window;
// a silent window means the round is stuck, so the proposer retries with a
// higher ballot, up to dirMaxAttempts silent windows, then degrades: the
// decree is abandoned, callers fall back to forwarding addresses, and the
// records heal on the objects' next moves.
func (n *Node) armDirTimer(dp *dirProposal) {
	if !n.chaosOn() {
		return
	}
	attempt := dp.p.Attempt()
	progress := dp.p.Progress()
	n.sched.At(n.cluster.Chaos.CommitWindow(), func() {
		if n.dirProps[dp.p.Slot(0)] != dp || dp.p.Done() {
			return
		}
		if !n.Up {
			dp.stalledTimer = true
			return
		}
		if dp.p.Attempt() != attempt {
			return // a newer round owns the live timer
		}
		if dp.p.Progress() != progress {
			n.armDirTimer(dp)
			return
		}
		if attempt >= dirMaxAttempts {
			n.dirResolve(dp, false)
			return
		}
		n.dirPrepareRound(dp)
	})
}

// dirResolve finishes a decree (chosen or degraded) and fires the waiter.
func (n *Node) dirResolve(dp *dirProposal, chosen bool) {
	delete(n.dirProps, dp.p.Slot(0))
	if !chosen {
		for i := 0; i < dp.p.Len(); i++ {
			n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
				Kind: obs.EvDirDegraded, Obj: uint32(dp.p.Slot(i).OID), Str: "decree attempts exhausted"})
		}
		n.cluster.Rec.Metrics().Add("dir_degraded", n.labels, uint64(dp.p.Len()))
	}
	if done := dp.done; done != nil {
		dp.done = nil
		done(chosen)
	}
}

// recvDirPromise counts one promise; on quorum it broadcasts the accept
// with the per-slot values.
func (n *Node) recvDirPromise(src int, p *wire.DirPromise) {
	key := dir.Slot{OID: p.Target, Epoch: p.Epoch}
	dp := n.dirProps[key]
	if dp == nil || dp.p.Done() {
		return
	}
	if !dp.p.OnPromise(p.Ballot, p.Ok, p.Promised, p.Len(), p.Acc) {
		return
	}
	if dp.more != nil {
		vals := make([]wire.DirSlotNode, len(*dp.more))
		for i, s := range *dp.more {
			vals[i] = wire.DirSlotNode{Target: s.Target, Epoch: s.Epoch, Node: dp.p.Chosen(i + 1)}
		}
		dp.vals = &vals
	}
	msg := &wire.DirAccept{Target: key.OID, Epoch: key.Epoch, Ballot: dp.p.Ballot,
		Node: dp.p.Chosen(0), More: dp.vals}
	for _, r := range dp.replicas {
		if n.dirProps[key] != dp {
			return
		}
		n.dirSend(r, msg)
	}
}

// recvDirAccepted counts one accept; on quorum every slot's decree is
// chosen: the proposer announces them to every replica and releases the
// waiter.
func (n *Node) recvDirAccepted(src int, p *wire.DirAccepted) {
	key := dir.Slot{OID: p.Target, Epoch: p.Epoch}
	dp := n.dirProps[key]
	if dp == nil {
		return
	}
	if !dp.p.OnAccepted(p.Ballot, p.Ok, p.Promised) {
		return
	}
	for i := 0; i < dp.p.Len(); i++ {
		s := dp.p.Slot(i)
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvDirDecree, Obj: uint32(s.OID), A: uint64(s.Epoch), B: uint64(dp.p.Chosen(i))})
		n.dirInvalidateLease(s.OID, s.Epoch)
	}
	m := n.cluster.Rec.Metrics()
	m.Add("dir_decrees", n.labels, uint64(dp.p.Len()))
	m.Add("dir_decree_rounds", n.labels, uint64(dp.p.Attempt()))
	if dp.p.Len() > 1 {
		m.Add("dir_group_decrees", n.labels, 1)
		m.Add("dir_group_slots", n.labels, uint64(dp.p.Len()))
	}
	learn := &wire.DirLearn{Target: key.OID, Epoch: key.Epoch, Node: dp.p.Chosen(0), More: dp.vals}
	for _, r := range dp.replicas {
		n.dirSend(r, learn)
	}
	n.dirResolve(dp, true)
}

// ------------------------------------------------------------- replica

// recvDirPrepare answers a prepare from this node's acceptor state: the
// replica promises only if every slot promises the ballot. Slots promised
// before a blocking one keep their (higher) promise — promising more never
// violates safety, and the proposer's retry ballot will clear the bar
// everywhere. Promised is the highest ballot any slot holds for: the
// ballot itself on success, the blocker on a nack.
func (n *Node) recvDirPrepare(src int, p *wire.DirPrepare) {
	r := &wire.DirPromise{Target: p.Target, Epoch: p.Epoch, Ballot: p.Ballot}
	r.Ok, r.Promised, r.AccBallot, r.AccNode = n.dirAcceptor(dir.Slot{OID: p.Target, Epoch: p.Epoch}).Prepare(p.Ballot)
	if more := p.Extra(); len(more) > 0 {
		accs := make([]wire.DirSlotAcc, len(more))
		for i, s := range more {
			ok, promised, accBal, accNode := n.dirAcceptor(dir.Slot{OID: s.Target, Epoch: s.Epoch}).Prepare(p.Ballot)
			r.Ok = r.Ok && ok
			if promised > r.Promised {
				r.Promised = promised
			}
			accs[i] = wire.DirSlotAcc{AccBallot: accBal, AccNode: accNode}
		}
		r.More = &accs
	}
	n.dirSend(src, r)
}

// recvDirAccept answers an accept from this node's acceptor state: every
// slot must accept for the replica to accept (partial accepts are safe — a
// slot's value can only be adopted by this same proposer's retry).
func (n *Node) recvDirAccept(src int, p *wire.DirAccept) {
	ok, promised := n.dirAcceptor(dir.Slot{OID: p.Target, Epoch: p.Epoch}).Accept(p.Ballot, p.Node)
	for _, s := range p.Extra() {
		sok, sp := n.dirAcceptor(dir.Slot{OID: s.Target, Epoch: s.Epoch}).Accept(p.Ballot, s.Node)
		ok = ok && sok
		if sp > promised {
			promised = sp
		}
	}
	n.dirSend(src, &wire.DirAccepted{Target: p.Target, Epoch: p.Epoch, Ballot: p.Ballot,
		Ok: ok, Promised: promised})
}

// recvDirLearn applies a chosen decree to this replica's record store, slot
// by slot.
func (n *Node) recvDirLearn(src int, p *wire.DirLearn) {
	n.dirLearn(p.Target, p.Epoch, p.Node)
	for _, s := range p.Extra() {
		n.dirLearn(s.Target, s.Epoch, s.Node)
	}
}

// dirLearn applies one chosen record. The slot is decided, so its acceptor
// scratch state retires; each move of one object uses a fresh slot, and
// only the move's source proposes for it, so the slot can never be
// reopened.
func (n *Node) dirLearn(o oid.OID, epoch uint32, node int32) {
	n.dirStore.Learn(o, node, epoch)
	delete(n.dirAcc, dir.Slot{OID: o, Epoch: epoch})
	n.dirInvalidateLease(o, epoch)
}

// dirAcceptor returns (creating on demand) this replica's acceptor for a
// slot.
func (n *Node) dirAcceptor(slot dir.Slot) *dir.Acceptor {
	a := n.dirAcc[slot]
	if a == nil {
		a = &dir.Acceptor{AccNode: -1}
		n.dirAcc[slot] = a
	}
	return a
}

// recvDirLookup answers a location query from this replica's record store,
// granting a read lease on hits when leases are armed.
func (n *Node) recvDirLookup(src int, p *wire.DirLookup) {
	r, ok := n.dirStore.Lookup(p.Target)
	reply := &wire.DirLookupReply{Target: p.Target, Token: p.Token, Ok: ok,
		Node: r.Node, Epoch: r.Epoch}
	if !ok {
		reply.Node = -1
	}
	if ok {
		if lp := n.cluster.dirLeasePeriod(); lp > 0 {
			reply.Lease = uint32(lp)
		}
	}
	n.dirSend(src, reply)
}

// ------------------------------------------------------------- lookups

// dirLookup is one outstanding location query.
type dirLookup struct {
	oid  oid.OID
	done func(ok bool, node int32, epoch uint32)
	// stalledTimer: the query timeout fired while this node was down;
	// restart re-arms it.
	stalledTimer bool
	token        uint32
}

// dirLookupQuery asks one replica of o's shard for its ownership record —
// the O(1) locate. It prefers this node's own replica role (free and
// synchronous), else the first unsuspected replica. timed arms a degrade
// timeout under chaos; callers with a blocked fragment on the line want it,
// the compactor does not (its queries carry no strong timers, so an idle
// simulation can finish). done always fires exactly once; ok=false means
// degraded or miss and the caller falls back to the forwarding chase.
func (n *Node) dirLookupQuery(o oid.OID, timed bool, done func(ok bool, node int32, epoch uint32)) {
	if n.cluster.dirLeasePeriod() > 0 {
		if l, ok := n.dirLeases[o]; ok {
			if n.now() >= l.expires {
				delete(n.dirLeases, o)
				n.cluster.Rec.Metrics().Add("dir_lease_expired", n.labels, 1)
			} else if n.suspects[int(l.node)] || int(l.node) == n.ID {
				// The leased home is suspect (the record is about to be
				// superseded or the chase must cover it) or names this very
				// node while the object is not resident here — either way
				// the lease is useless; drop it and ask the shard.
				delete(n.dirLeases, o)
			} else {
				// Lease hit: answer from the cached record for just the
				// syscall charge — no shard query, no messages. The same
				// monotonic epoch guard that fences replica records
				// (dirRefreshProxy) fences this one at the caller.
				n.charge(uint64(n.cluster.Costs.SyscallCycles))
				n.cluster.Rec.Metrics().Add("dir_lease_hits", n.labels, 1)
				done(true, l.node, l.epoch)
				return
			}
		}
	}
	n.cluster.Rec.Metrics().Add("dir_lookups", n.labels, 1)
	target := -1
	for _, r := range n.dirReplicasOf(o) {
		if r == n.ID {
			target = r
			break
		}
		if target < 0 && !n.suspects[r] {
			target = r
		}
	}
	if target < 0 {
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvDirDegraded, Obj: uint32(o), Str: "all replicas suspected"})
		n.cluster.Rec.Metrics().Add("dir_degraded", n.labels, 1)
		done(false, -1, 0)
		return
	}
	n.dirTok++
	lk := &dirLookup{oid: o, done: done, token: n.dirTok}
	n.dirLooks[lk.token] = lk
	if timed && n.chaosOn() && target != n.ID {
		n.armDirLookupTimer(lk)
	}
	n.dirSend(target, &wire.DirLookup{Target: o, Token: lk.token})
}

// armDirLookupTimer degrades a remote query whose reply does not arrive
// within the commit window (replica crashed after suspicion checks, reply
// stalled). The fallback chase still answers the caller.
func (n *Node) armDirLookupTimer(lk *dirLookup) {
	n.sched.At(n.cluster.Chaos.CommitWindow(), func() {
		if n.dirLooks[lk.token] != lk {
			return
		}
		if !n.Up {
			lk.stalledTimer = true
			return
		}
		delete(n.dirLooks, lk.token)
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvDirDegraded, Obj: uint32(lk.oid), Str: "lookup timeout"})
		n.cluster.Rec.Metrics().Add("dir_degraded", n.labels, 1)
		lk.done(false, -1, 0)
	})
}

// recvDirLookupReply resolves an outstanding query.
func (n *Node) recvDirLookupReply(src int, p *wire.DirLookupReply) {
	lk := n.dirLooks[p.Token]
	if lk == nil {
		return // timed out and degraded, or duplicate
	}
	delete(n.dirLooks, p.Token)
	hit := uint64(0)
	if p.Ok {
		hit = 1
		n.cluster.Rec.Metrics().Add("dir_lookup_hits", n.labels, 1)
		if p.Lease > 0 && n.cluster.dirLeasePeriod() > 0 {
			n.dirLeases[p.Target] = dirLease{node: p.Node, epoch: p.Epoch,
				expires: n.now() + netsim.Micros(p.Lease)}
		}
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvDirLookup, Obj: uint32(p.Target), A: hit, B: uint64(uint32(p.Node))})
	lk.done(p.Ok, p.Node, p.Epoch)
}

// dirRefreshProxy applies a directory record to a local proxy. Records are
// quorum-chosen truths, so they overwrite hint-derived knowledge of the
// same epoch; strictly older records never regress the proxy (the same
// monotonicity guard UpdateLoc uses). Reports whether the proxy moved.
func (n *Node) dirRefreshProxy(o *Obj, node int32, epoch uint32) bool {
	if o.Resident || o.transit != nil || node < 0 || int(node) >= len(n.cluster.Nodes) {
		return false
	}
	if int(node) == n.ID {
		// The record names this node but the object is not resident here:
		// an inbound move's decree raced the install, or we re-exported it.
		// Never point a proxy at ourselves.
		return false
	}
	if epoch > o.Epoch || (epoch == o.Epoch && int(node) != o.LastKnown) {
		o.LastKnown = int(node)
		o.Epoch = epoch
		o.LocStale = false
		o.chained = false
		return true
	}
	if epoch == o.Epoch && int(node) == o.LastKnown {
		o.LocStale = false
	}
	return false
}

// dirLocate services a locate for a blocked fragment: one shard query, then
// the (refreshed) forwarding protocol — the resident node still produces
// the authoritative answer, the directory just collapses the walk to ≤1
// hop. On miss or degrade the chase runs from the old hint unchanged.
func (n *Node) dirLocate(f *Frag, o *Obj) {
	n.dirLookupQuery(o.OID, true, func(ok bool, node int32, epoch uint32) {
		if cur, live := n.objects[o.OID]; live && cur == o && !o.Resident {
			if ok {
				n.dirRefreshProxy(o, node, epoch)
			}
			n.sendMsg(o.LastKnown, &wire.Locate{
				Target: o.OID, Origin: int32(n.ID), ReplyFrag: f.ID,
			})
			return
		}
		// The object became resident here while the query was in flight
		// (an inbound move landed): answer directly.
		n.pushTemp(f, uint32(n.ID))
		n.enqueue(f)
	})
}

// dirRerouteInvoke re-resolves a suspected-or-stale callee location through
// the directory before giving up on the invocation. Any record naming a
// healthy home lets the call redispatch — including the record that merely
// confirms the proxy's current knowledge (the home crashed, restarted and
// was unsuspected again while LocStale was still set: the call must go
// through, not fault). Only when the freshest location the directory knows
// is still a suspected node does the invocation fail, with the same typed
// fault the directory-free path raises.
func (n *Node) dirRerouteInvoke(f *Frag, recv *Obj, opName string, args []uint32) {
	f.Status = FragStateBlockedCall
	f.waitNode = -1
	n.dirLookupQuery(recv.OID, true, func(ok bool, node int32, epoch uint32) {
		if recv.Resident {
			// An inbound move landed the callee here mid-query.
			f.Status = FragStateReady
			n.dispatchCall(f, recv, opName, args)
			return
		}
		if ok {
			n.dirRefreshProxy(recv, node, epoch)
		}
		if !n.suspects[recv.LastKnown] {
			// The redispatch target is as fresh as the directory can make
			// it; clear the stale bit so the next invoke takes the fast
			// path instead of re-querying the shard every call.
			recv.LocStale = false
			n.cluster.Rec.Metrics().Add("dir_reroutes", n.labels, 1)
			f.Status = FragStateReady
			n.invokeRemote(f, recv, opName, args)
			return
		}
		recv.LocStale = false // fault now; a later suspicion re-marks
		n.faultErr(f, ErrNodeDown, fmt.Sprintf("remote invocation of %s on %v: node %d is down",
			opName, recv.OID, recv.LastKnown))
	})
}

// invalidateLocationsAt marks every proxy whose cached location points at
// the newly suspected peer: the forwarding address may dangle. The marks
// steer directory-armed lookups and the compactor; without the directory
// they are inert bits.
func (n *Node) invalidateLocationsAt(peer int) {
	for _, o := range n.objects {
		if !o.Resident && o.transit == nil && o.LastKnown == peer {
			o.LocStale = true
		}
	}
	// Leases pointing at the suspect peer drop too: a crashed home's record
	// is exactly the staleness a lease must not serve through.
	for o, l := range n.dirLeases {
		if int(l.node) == peer {
			delete(n.dirLeases, o)
		}
	}
}

// ------------------------------------------------------------ compactor

// dirCompactTick is the background chain compactor: each tick it refreshes
// a bounded batch of flagged proxies (chained through by traffic, or
// location-stale after a suspicion) from the directory, rewriting them to
// the decreed home so forwarding chains truncate to ≤1 hop. Weakly
// self-re-arming, like heartbeats.
func (n *Node) dirCompactTick() {
	n.sched.AtWeak(n.cluster.dirCompactPeriod(), n.dirCompactTick)
	if !n.Up {
		return
	}
	var ids []oid.OID
	for id, o := range n.objects {
		if !o.Resident && o.transit == nil && (o.LocStale || o.chained) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > dirCompactBatch {
		ids = ids[:dirCompactBatch]
	}
	for _, id := range ids {
		id := id
		n.dirLookupQuery(id, false, func(ok bool, node int32, epoch uint32) {
			o := n.objects[id]
			if o == nil || o.Resident {
				return
			}
			// One query per flagging either way: a miss (the object never
			// moved under the directory) clears the flags too, or the
			// compactor would re-query it every tick forever.
			if ok && n.dirRefreshProxy(o, node, epoch) {
				n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
					Kind: obs.EvDirCompact, Obj: uint32(id), A: uint64(epoch), B: uint64(uint32(node))})
				n.cluster.Rec.Metrics().Add("dir_compactions", n.labels, 1)
			}
			o.LocStale = false
			o.chained = false
		})
	}
}

// -------------------------------------------------- move-commit ordering

// dirProposeMove drives the decree for a positively-acked move and commits
// the transaction when the decree resolves — chosen or degraded.
func (n *Node) dirProposeMove(tx *moveTxn) {
	n.dirPropose([]dir.Decree{dirDecree(tx)}, func(bool) { n.commitPending(tx) })
}

// commitPending commits tx provided it is still pending (the commit timer
// cannot have aborted it: a delivered, acked move retires the timer; this
// is belt and braces).
func (n *Node) commitPending(tx *moveTxn) {
	if cur, live := n.pendingCommits[tx.span]; live && cur == tx {
		n.commitMove(tx)
	}
}

// dirReplicaKey identifies o's shard replica set for cohort grouping: two
// members share one decree round exactly when their shards replicate on
// the same node set. Membership is what matters — placement orders the
// same set differently per shard anchor — so the key is sorted.
func (n *Node) dirReplicaKey(o oid.OID) string {
	replicas := n.dirReplicasOf(o)
	sorted := make([]int, len(replicas))
	copy(sorted, replicas)
	sort.Ints(sorted)
	return fmt.Sprint(sorted)
}

// dirGroupBatch collects one MoveGroup cohort's in-flight transactions
// under chaos so their decrees share rounds: members' MoveAcks arrive back
// to back (the whole cohort installs in one frame event), the batch waits
// until every member resolves — positively acked, refused or aborted —
// then proposes over the acked members. Each member's commit still gates
// on its decree resolving, like the single-object path.
type dirGroupBatch struct {
	outstanding int
	ready       []*moveTxn
}

// dirBatchAcked records one positively-acked member; the last resolution
// triggers the batched proposals.
func (n *Node) dirBatchAcked(tx *moveTxn) {
	b := tx.dirBatch
	tx.dirBatch = nil
	b.ready = append(b.ready, tx)
	b.outstanding--
	if b.outstanding == 0 {
		n.dirProposeCohort(b.ready, true)
	}
}

// dirBatchDrop removes an aborted or refused member from its batch (no-op
// for batchless transactions); the remaining acked members still decree.
func (n *Node) dirBatchDrop(tx *moveTxn) {
	b := tx.dirBatch
	if b == nil {
		return
	}
	tx.dirBatch = nil
	b.outstanding--
	if b.outstanding == 0 && len(b.ready) > 0 {
		n.dirProposeCohort(b.ready, true)
	}
}

// dirProposeCohort drives the decrees for a MoveGroup cohort's moves,
// batched per shard replica set: members whose shards replicate on the
// same node set share one decree round, and a member alone on its set
// decrees in a one-slot round. With commit (chaos-on) each member commits
// when its round resolves; chaos-off the decrees are fire-and-forget.
func (n *Node) dirProposeCohort(txs []*moveTxn, commit bool) {
	var order []string
	groups := map[string][]*moveTxn{}
	for _, tx := range txs {
		key := n.dirReplicaKey(tx.obj.OID)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], tx)
	}
	for _, key := range order {
		members := groups[key]
		ds := make([]dir.Decree, len(members))
		for i, tx := range members {
			ds[i] = dirDecree(tx)
		}
		var done func(bool)
		if commit {
			done = func(bool) {
				for _, tx := range members {
					n.commitPending(tx)
				}
			}
		}
		n.dirPropose(ds, done)
	}
}

// restartDir re-arms directory timers that fired while the node was down,
// in deterministic order; called from restart().
func (n *Node) restartDir() {
	slots := make([]dir.Slot, 0, len(n.dirProps))
	for slot, dp := range n.dirProps {
		if dp.stalledTimer {
			slots = append(slots, slot)
		}
	}
	dir.SortSlots(slots)
	for _, slot := range slots {
		dp := n.dirProps[slot]
		dp.stalledTimer = false
		n.armDirTimer(dp)
	}
	toks := make([]uint32, 0, len(n.dirLooks))
	for tok, lk := range n.dirLooks {
		if lk.stalledTimer {
			toks = append(toks, tok)
		}
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	for _, tok := range toks {
		lk := n.dirLooks[tok]
		lk.stalledTimer = false
		n.armDirLookupTimer(lk)
	}
}
