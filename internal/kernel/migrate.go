// Object and native-code thread migration (§3.5) — the paper's core.
//
// Moving an object moves, with it, every activation record of every thread
// that is executing an operation of the object. On the source node the
// kernel walks each thread's stack through the activation templates,
// reconstructing per-frame register contents by unwinding the callee-save
// areas, and converts each affected activation to the machine-independent
// format: all variables in canonical slot order, program points as bus-stop
// numbers, live temporaries as described by the per-stop tables. On the
// destination the records are re-specialized to that machine's templates —
// register homes refilled, activation records laid out per the local ISA,
// bus stops converted back to PCs — including the relocation pass the paper
// describes (records are converted youngest first, then placed).
package kernel

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/busstop"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// beginMoveSpan opens an observability span for one outbound hop. The span
// starts when the node can begin the conversion work (its CPU timeline, not
// the event instant: everything below happens inside one simulated event).
func (n *Node) beginMoveSpan(o *Obj, dest int, kind string) *obs.Span {
	start := n.CPU.FreeAt
	if now := n.now(); now > start {
		start = now
	}
	return n.cluster.Rec.BeginSpan(int64(start), int32(n.ID), int32(dest),
		uint32(o.OID), kind)
}

// finishMoveOut closes the source side of a hop: records the MD→MI phase
// from the converter-stat delta, emits the migrate-out and conversion
// events, and bumps the per-arch-pair migration counter.
func (n *Node) finishMoveOut(sp *obs.Span, o *Obj, dest int, conv wire.Converter, prev wire.Stats) {
	cur := conv.Stats()
	sp.ConvOutCalls = cur.Calls - prev.Calls
	sp.ConvOutBytes = cur.Bytes - prev.Bytes
	sp.ConvOutEnd = int64(n.CPU.FreeAt)
	rec := n.cluster.Rec
	rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvConvOut,
		Span: sp.ID, Obj: uint32(o.OID), A: sp.ConvOutCalls, B: sp.ConvOutBytes})
	rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvMigrateOut,
		Span: sp.ID, Obj: uint32(o.OID), A: uint64(sp.Frags), B: uint64(dest), Str: sp.ObjKind})
	rec.Metrics().Add("migrations_pair", fmt.Sprintf("src=%s,dst=%s",
		n.Spec.ID, n.cluster.Nodes[dest].Spec.ID), 1)
}

// frameInfo is one activation during a stack walk (youngest first).
type frameInfo struct {
	lf    *loadedFunc
	fp    uint32
	self  *Obj
	stop  busstop.Info
	entry bool // blocked at operation entry: not yet started
	// tempDepth is the actual evaluation-stack depth: for the thread's top
	// activation this can be stop.TempDepth+1 when the kernel has already
	// pushed a resume value (e.g. a delivered remote result) but the thread
	// has not run yet; the extra slot's kind is the stop's ResultKind.
	tempDepth int
	regs      [16]uint32
	kont      bool // this frame returns into a kernel continuation
	pinned    bool // unmovable: part of an active creation chain
}

// tempKindAt returns the kind of evaluation-stack slot j at a stop,
// accounting for an already-pushed resume value.
func tempKindAt(stop busstop.Info, j int) ir.VK {
	if j < len(stop.TempKinds) {
		return stop.TempKinds[j]
	}
	return stop.ResultKind
}

// walkFrames walks f's activation records through templates, reconstructing
// each frame's register view by unwinding the callee-save areas.
func (n *Node) walkFrames(f *Frag) ([]frameInfo, error) {
	var frames []frameInfo
	regs := f.CPU.Regs
	lf := f.fn
	fp := f.CPU.FP
	first := true
	childRetPC := uint32(0)
	for {
		t := lf.fc.Template
		fi := frameInfo{lf: lf, fp: fp, regs: regs}
		selfAddr := n.ld32(fp + uint32(t.SelfOff))
		self, err := n.objAt(selfAddr)
		if err != nil {
			return nil, fmt.Errorf("walk %s: %v", lf.name(), err)
		}
		fi.self = self
		if first && f.CPU.PC == 0 {
			// Operation entry: the activation exists (created at the call
			// bus stop) but has not executed an instruction — either
			// blocked at monitor entry or freshly scheduled. PC 0 is never
			// a bus stop (stops are post-instruction addresses).
			fi.entry = true
		} else {
			pc := f.CPU.PC
			if !first {
				pc = childRetPC
			}
			// ByPCAny: a migrated-in thread may be parked at an exit-only
			// stop installed by a number-to-PC conversion.
			stop, err := lf.fc.Stops.ByPCAny(pc)
			if err != nil {
				return nil, fmt.Errorf("walk %s: %v", lf.name(), err)
			}
			fi.stop = stop
			fi.tempDepth = stop.TempDepth
			if first {
				fi.tempDepth = int(f.CPU.TempDepth)
				if fi.tempDepth < stop.TempDepth || fi.tempDepth > stop.TempDepth+1 {
					return nil, fmt.Errorf("walk %s: temp depth %d vs stop depth %d",
						lf.name(), fi.tempDepth, stop.TempDepth)
				}
			}
		}
		raw := n.ld32(fp + uint32(t.RetDescOff))
		fi.kont = raw&kontFlag != 0
		frames = append(frames, fi)
		// Unwind: restore the caller's values of this frame's home regs.
		for i, r := range t.SavedRegs {
			regs[r&0xf] = n.ld32(fp + uint32(t.SavedRegsOff) + uint32(4*i))
		}
		desc := raw &^ kontFlag
		if desc == descNone {
			break
		}
		caller, err := n.funcByDesc(desc)
		if err != nil {
			return nil, err
		}
		childRetPC = n.ld32(fp + uint32(t.RetPCOff))
		fp = n.ld32(fp + uint32(t.SavedFPOff))
		lf = caller
		first = false
	}
	// Pinned: kernel-continuation frames and their callers cannot migrate
	// (the continuation is node-local state).
	for i := range frames {
		if frames[i].kont || (i > 0 && frames[i-1].kont) {
			frames[i].pinned = true
		}
	}
	return frames, nil
}

// pendingMove is a deferred migration (the object had a pinned activation).
type pendingMove struct {
	obj  oid.OID
	dest int
	fix  bool
}

// retryPendingMoves re-attempts deferred migrations.
func (n *Node) retryPendingMoves() {
	if len(n.pendingMoves) == 0 {
		return
	}
	pend := n.pendingMoves
	n.pendingMoves = nil
	for _, pm := range pend {
		o, ok := n.objects[pm.obj]
		if !ok || !o.Resident {
			continue
		}
		n.moveObject(o, pm.dest, pm.fix)
	}
}

// moveObject migrates a resident object (and the thread fragments inside
// it) to dest. Fixed objects refuse to move; immutable objects move by
// duplication.
func (n *Node) moveObject(o *Obj, dest int, fix bool) {
	if dest == n.ID {
		if fix {
			o.Fixed = true
		}
		return
	}
	if o.Fixed {
		n.tracef("node%d: move of fixed %v refused", n.ID, o.OID)
		return
	}
	if n.chaosOn() {
		if o.transit != nil {
			// Mid-transit: park and replay once the current move resolves.
			// The replay must re-check residency: if the move committed,
			// the object lives elsewhere now and shipping this node's
			// stale copy would fork it — forward the request instead,
			// exactly as a parked remote MoveReq would replay.
			tx := o.transit
			tx.parked = append(tx.parked, func() {
				if !o.Resident {
					n.sendMsg(o.LastKnown, &wire.MoveReq{Target: o.OID, Dest: int32(dest), Fix: fix})
					return
				}
				n.moveObject(o, dest, fix)
			})
			return
		}
		if n.suspects[dest] {
			// The destination looks dead: degrade gracefully — the object
			// stays resident here and callers keep reaching it by remote
			// invocation.
			n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
				Kind: obs.EvMoveAbort, Obj: uint32(o.OID), B: uint64(dest), Str: "degraded"})
			n.cluster.Rec.Metrics().Add("move_degraded", n.labels, 1)
			return
		}
	}
	switch o.Kind {
	case ObjString:
		// Strings are immutable and copied on every transfer; an explicit
		// move is a no-op.
		return
	case ObjArray:
		n.moveArray(o, dest, fix)
		return
	}
	if o.Code.oc.Template.Immutable {
		n.moveImmutable(o, dest)
		return
	}
	n.movePlain(o, dest, fix)
}

// moveArray ships an array's elements.
func (n *Node) moveArray(o *Obj, dest int, fix bool) {
	tx := n.newMoveTxn(o, dest, fix)
	sp := n.beginMoveSpan(o, dest, "array")
	n.charge(uint64(n.cluster.Costs.MigrateCycles))
	conv := n.cluster.converterFor(n, n.cluster.Nodes[dest].Spec.ID)
	prev := conv.Stats()
	data := make([]wire.Value, o.Len)
	for i := range data {
		v, err := n.wireTempValue(conv, o.ElemKind, n.ld32(o.slotAddr(i)))
		if err != nil {
			panic(fmt.Sprintf("kernel: move array: %v", err))
		}
		data[i] = v
	}
	n.chargeConv(conv, prev)
	o.Epoch++
	n.finishMoveOut(sp, o, dest, conv, prev)
	n.dispatchMove(dest, &wire.Move{
		Object: o.OID, IsArray: true, ArrayElemKind: byte(o.ElemKind),
		Epoch: o.Epoch, Data: data, Fixed: fix, Hints: n.collectHints(data),
		SpanID: sp.ID,
	}, tx, sp, func() {
		o.Resident = false
		o.LastKnown = dest
		o.LocStale = false
		o.chained = false
		n.Migrations++
	})
}

// moveImmutable duplicates an immutable object: the destination gets a
// resident copy under the same OID while the source keeps its own (§3.2:
// "immutable objects ... can be moved to another processor by duplication").
func (n *Node) moveImmutable(o *Obj, dest int) {
	sp := n.beginMoveSpan(o, dest, "immutable")
	n.charge(uint64(n.cluster.Costs.MigrateCycles))
	conv := n.cluster.converterFor(n, n.cluster.Nodes[dest].Spec.ID)
	prev := conv.Stats()
	tmpl := o.Code.oc.Template
	data := make([]wire.Value, len(tmpl.Slots))
	for i, k := range tmpl.Slots {
		v, err := n.wireTempValue(conv, k, n.ld32(o.slotAddr(i)))
		if err != nil {
			panic(fmt.Sprintf("kernel: move immutable: %v", err))
		}
		data[i] = v
	}
	n.chargeConv(conv, prev)
	n.finishMoveOut(sp, o, dest, conv, prev)
	bytes, sendAt := n.sendMsg(dest, &wire.Move{
		Object: o.OID, CodeOID: o.Code.oc.CodeOID, Data: data,
		Hints: n.collectHints(data), SpanID: sp.ID,
	})
	n.cluster.Rec.SpanSent(sp.ID, bytes, int64(sendAt))
	n.Migrations++
}

// movePlain implements full object + thread migration. Under a chaos plan
// it runs as the prepare phase of a two-phase commit: marshalling is
// read-only and every destructive completion is deferred onto the move
// transaction (see twophase.go); chaos-off the deferred operations execute
// inline at exactly their historical program points.
func (n *Node) movePlain(o *Obj, dest int, fix bool) {
	tx := n.newMoveTxn(o, dest, fix)
	n.charge(uint64(n.cluster.Costs.MigrateCycles))
	peer := n.cluster.Nodes[dest].Spec.ID
	conv := n.cluster.converterFor(n, peer)
	prev := conv.Stats()

	// Deterministic fragment order.
	fragIDs := make([]uint32, 0, len(n.frags))
	for id := range n.frags {
		fragIDs = append(fragIDs, id)
	}
	sort.Slice(fragIDs, func(i, j int) bool { return fragIDs[i] < fragIDs[j] })

	type fragPlan struct {
		frag   *Frag
		frames []frameInfo
		runs   [][2]int
	}
	var plans []fragPlan
	for _, id := range fragIDs {
		fr := n.frags[id]
		if fr.fn == nil {
			continue
		}
		frames, err := n.walkFrames(fr)
		if err != nil {
			panic(fmt.Sprintf("kernel: node %d: %v", n.ID, err))
		}
		var runs [][2]int
		i := 0
		for i < len(frames) {
			if frames[i].self != o {
				i++
				continue
			}
			j := i
			for j+1 < len(frames) && frames[j+1].self == o {
				j++
			}
			for k := i; k <= j; k++ {
				if frames[k].pinned {
					// Defer the whole move until the creation chain ends.
					n.pendingMoves = append(n.pendingMoves, pendingMove{o.OID, dest, fix})
					return
				}
			}
			runs = append(runs, [2]int{i, j})
			i = j + 1
		}
		if len(runs) > 0 {
			if fr.Status == FragStateInTransit {
				// Another object's in-flight move holds deferred stack
				// restructuring over this fragment; retry once it resolves.
				n.pendingMoves = append(n.pendingMoves, pendingMove{o.OID, dest, fix})
				n.armMoveRetry()
				return
			}
			plans = append(plans, fragPlan{frag: fr, frames: frames, runs: runs})
		}
	}

	// The move will happen: open its observability span (deferred moves
	// above never reach here, so no abandoned spans).
	sp := n.beginMoveSpan(o, dest, "plain")

	// Build wire fragments and restructure local stacks.
	var wireFrags []wire.Fragment
	pieceIDOf := map[*Frag]uint32{} // original fragment -> wire id of its top piece
	var refs []wire.Value           // every shipped value, for hint collection
	for _, plan := range plans {
		fr, frames := plan.frag, plan.frames
		m := len(frames)
		// Walk runs youngest-to-oldest, building moved pieces and local
		// remainder pieces.
		type localPiece struct {
			frag *Frag // nil until materialized
			a, b int
		}
		// Partition [0..m) into alternating segments.
		var segs []struct {
			moved bool
			a, b  int
		}
		cursor := 0
		for _, r := range plan.runs {
			if r[0] > cursor {
				segs = append(segs, struct {
					moved bool
					a, b  int
				}{false, cursor, r[0] - 1})
			}
			segs = append(segs, struct {
				moved bool
				a, b  int
			}{true, r[0], r[1]})
			cursor = r[1] + 1
		}
		if cursor < m {
			segs = append(segs, struct {
				moved bool
				a, b  int
			}{false, cursor, m - 1})
		}
		// Materialize fragments for each segment. The topmost segment keeps
		// fr's identity; others get fresh IDs. Local remainder pieces are
		// stack surgery, so they materialize as (possibly deferred) commit
		// operations; the ids are minted eagerly for the wire links.
		ids := make([]uint32, len(segs))
		frs := make([]*Frag, len(segs))
		for si := range segs {
			if si == 0 {
				ids[si] = fr.ID
				if !segs[si].moved {
					frs[si] = fr
				}
			} else {
				ids[si] = n.mintFragID()
				if !segs[si].moved {
					si := si
					tx.do(func() {
						frs[si] = n.adoptRemainder(fr, frames, segs[si].a, segs[si].b, ids[si])
					})
				}
			}
		}
		// Links: each segment links to the one below; the bottom segment
		// inherits fr's original Link — captured before any segment mutates
		// fr.Link (the topmost unmoved segment reassigns it below).
		origLink := fr.Link
		linkOf := func(si int) wire.Fragment {
			var l wire.Fragment
			if si == len(segs)-1 {
				l.LinkNode = origLink.Node
				l.LinkFrag = origLink.Frag
			} else if segs[si+1].moved {
				l.LinkNode = int32(dest)
				l.LinkFrag = ids[si+1]
			} else {
				l.LinkNode = int32(n.ID)
				l.LinkFrag = ids[si+1]
			}
			return l
		}
		for si, seg := range segs {
			lk := linkOf(si)
			if seg.moved {
				wf := wire.Fragment{
					FragID: ids[si], LinkNode: lk.LinkNode, LinkFrag: lk.LinkFrag,
				}
				if si == 0 {
					wf.Executing = true
					wf.Status, wf.CondIndex = wireStatus(fr)
					pieceIDOf[fr] = ids[si]
				} else {
					wf.Status = wire.FragBlockedCall
				}
				for k := seg.a; k <= seg.b; k++ {
					act, vs := n.marshalFrame(conv, peer, frames[k])
					n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
						Kind: obs.EvThreadStop, Span: sp.ID, Frag: fr.ID,
						Obj: uint32(o.OID), A: uint64(act.Stop), Str: frames[k].lf.name()})
					wf.Acts = append(wf.Acts, act)
					refs = append(refs, vs...)
					sp.Acts++
				}
				wireFrags = append(wireFrags, wf)
			} else if si > 0 {
				// Interior/lower remainder: waits for the piece above to
				// return into it. Its records are relocated and its bottom
				// cut by the adoptRemainder commit op above.
				si := si
				tx.do(func() {
					lfr := frs[si]
					lfr.Link = Link{Node: lk.LinkNode, Frag: lk.LinkFrag}
					lfr.Status = FragStateBlockedCall
				})
			} else {
				// Top remainder piece: records stay in place; cut the
				// oldest frame's caller — it now returns via Link.
				bot := frames[seg.b]
				tx.do(func() {
					fr.Link = Link{Node: lk.LinkNode, Frag: lk.LinkFrag}
					kf := uint32(0)
					if bot.kont {
						kf = kontFlag
					}
					n.st32(bot.fp+uint32(bot.lf.fc.Template.RetDescOff), descNone|kf)
				})
			}
		}
		if segs[0].moved {
			// The thread's active top leaves this node: forward late
			// returns, and drop the local fragment.
			tx.do(func() {
				n.movedFrags[fr.ID] = dest
				n.killFrag(fr)
			})
		}
		if tx.live {
			// Freeze the fragment until the destination acknowledges the
			// install (its wire status was captured above).
			tx.suspend(fr)
		}
	}

	// Object data.
	tmpl := o.Code.oc.Template
	data := make([]wire.Value, len(tmpl.Slots))
	for i, k := range tmpl.Slots {
		v, err := n.wireTempValue(conv, k, n.ld32(o.slotAddr(i)))
		if err != nil {
			panic(fmt.Sprintf("kernel: move: %v", err))
		}
		data[i] = v
	}
	refs = append(refs, data...)

	// Monitor state: map holder/queues to shipped piece IDs.
	o.Epoch++
	sp.Frags = len(wireFrags)
	msg := &wire.Move{
		Object: o.OID, CodeOID: o.Code.oc.CodeOID, Epoch: o.Epoch, Fixed: fix,
		Data: data, Frags: wireFrags, SpanID: sp.ID,
	}
	if o.Mon != nil {
		if o.Mon.Holder != nil {
			msg.MonLocked = true
			msg.MonHolder = mustPiece(pieceIDOf, o.Mon.Holder, "monitor holder")
		}
		for _, e := range o.Mon.Entry {
			msg.EntryQueue = append(msg.EntryQueue, mustPiece(pieceIDOf, e, "monitor entrant"))
		}
		for _, q := range o.Mon.Conds {
			var wq []uint32
			for _, w := range q {
				wq = append(wq, mustPiece(pieceIDOf, w, "condition waiter"))
			}
			msg.CondQueues = append(msg.CondQueues, wq)
		}
	}
	msg.Hints = n.collectHints(refs)
	n.chargeConv(conv, prev)
	n.finishMoveOut(sp, o, dest, conv, prev)

	// The object becomes a remote proxy here; stale machine addresses keep
	// resolving to it through byAddr. Under chaos this is the final commit
	// operation: the object stays resident until the destination acks.
	n.dispatchMove(dest, msg, tx, sp, func() {
		o.Resident = false
		o.LastKnown = dest
		o.LocStale = false
		o.chained = false
		o.Mon = nil
		n.Migrations++
	})
}

func mustPiece(m map[*Frag]uint32, f *Frag, what string) uint32 {
	id, ok := m[f]
	if !ok {
		panic(fmt.Sprintf("kernel: %s did not migrate with its object", what))
	}
	return id
}

// wireStatus maps a fragment state to its wire form.
func wireStatus(f *Frag) (wire.FragStatus, uint16) {
	switch f.Status {
	case FragStateBlockedCall:
		return wire.FragBlockedCall, 0
	case FragStateBlockedEntry:
		return wire.FragBlockedEntry, 0
	case FragStateWaitCond:
		return wire.FragWaitCond, f.condIndex
	default:
		return wire.FragRunnable, 0
	}
}

// mintFragID allocates a globally unique fragment id.
func (n *Node) mintFragID() uint32 {
	n.fragCtr++
	return uint32(n.ID)<<24 | n.fragCtr
}

// adoptRemainder creates a fragment for a local remainder piece [a..b] of
// frames, relocating its records into a fresh stack region (the records
// above and below belonged to other pieces).
func (n *Node) adoptRemainder(orig *Frag, frames []frameInfo, a, b int, id uint32) *Frag {
	nf := n.newFragment(id, FragStateBlockedCall, Link{Node: -1})
	base := nf.stackBase
	// Relocate oldest-first so SavedFP links point downward correctly.
	place := base
	newFPs := make([]uint32, b-a+1)
	for k := b; k >= a; k-- {
		fi := frames[k]
		t := fi.lf.fc.Template
		copy(n.Mem[place:place+uint32(t.Size)], n.Mem[fi.fp:fi.fp+uint32(t.Size)])
		newFPs[k-a] = place
		// Fix the saved-FP word: oldest points at base (unused), others at
		// the record below.
		if k == b {
			n.st32(place+uint32(t.SavedFPOff), base)
			// Cut the caller: the piece below this remainder is reached
			// through the fragment Link, not a local record.
			kf := uint32(0)
			if fi.kont {
				kf = kontFlag
			}
			n.st32(place+uint32(t.RetDescOff), descNone|kf)
		} else {
			n.st32(place+uint32(t.SavedFPOff), newFPs[k+1-a])
		}
		n.st32(place+uint32(t.TempBaseOff), place+uint32(t.TempOff))
		place += uint32(t.Size)
		nf.nframes++
	}
	// Top of the remainder: reconstruct CPU state from the walk.
	top := frames[a]
	t := top.lf.fc.Template
	nf.fn = top.lf
	nf.CPU.Regs = top.regs
	nf.CPU.FP = newFPs[0]
	nf.CPU.PC = top.stop.PC
	nf.CPU.Self = n.mustAddr(top.self)
	nf.CPU.TempBase = newFPs[0] + uint32(t.TempOff)
	nf.CPU.TempDepth = int32(top.stop.TempDepth)
	nf.CPU.LitBase = top.lf.litBase
	return nf
}

func (n *Node) mustAddr(o *Obj) uint32 {
	a, err := n.ensureAddressable(o)
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	return a
}

// marshalFrame converts one activation to machine-independent form,
// returning also the shipped values (for hint collection). It runs over
// the cached conversion plan for (function, stop, peer ISA) — see
// plan.go — compiling it on the first hop through this stop.
func (n *Node) marshalFrame(conv wire.Converter, peer arch.ID, fi frameInfo) (wire.MIActivation, []wire.Value) {
	stopNum := uint16(fi.stop.Stop)
	if fi.entry {
		stopNum = wire.EntryStop
	}
	return n.marshalFramePlanned(conv, fi, n.planFor(fi.lf, stopNum, peer))
}

// ---------------------------------------------------------------- receive

// finishMoveIn closes the destination side of a hop's span (MI→MD
// respecialization, measured on this node's CPU timeline) and emits the
// conversion and migrate-in events.
func (n *Node) finishMoveIn(src int, p *wire.Move, conv wire.Converter, prev wire.Stats, respecStart int64) {
	cur := conv.Stats()
	calls := cur.Calls - prev.Calls
	rec := n.cluster.Rec
	rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvConvIn,
		Span: p.SpanID, Obj: uint32(p.Object), A: calls, B: cur.Bytes - prev.Bytes})
	rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvMigrateIn,
		Span: p.SpanID, Obj: uint32(p.Object), B: uint64(src)})
	rec.SpanRespec(p.SpanID, respecStart, int64(n.CPU.FreeAt), calls)
}

// recvMove installs a migrated object and its thread fragments. Under a
// chaos plan it is the participant side of the two-phase commit: duplicate
// spans are suppressed (the object is never installed twice), the payload
// is structurally validated before anything is touched, and the source gets
// a MoveAck either way.
func (n *Node) recvMove(src int, p *wire.Move) {
	if n.chaosOn() {
		if n.seenSpans[p.SpanID] {
			// Retransmitted or duplicated Move: already installed. Re-ack —
			// the earlier ack may have raced a crash window.
			n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
				Kind: obs.EvMoveDupDrop, Span: p.SpanID, Obj: uint32(p.Object), B: uint64(src)})
			n.cluster.Rec.Metrics().Add("move_dup_drops", n.labels, 1)
			n.sendMsg(src, &wire.MoveAck{Object: p.Object, SpanID: p.SpanID, Epoch: p.Epoch, Ok: true})
			return
		}
		if err := n.validateMove(p); err != nil {
			// Protocol error: refuse the install; the source's abort path
			// restores the object there and retries or degrades.
			n.tracef("refusing move of %v from node%d: %v", p.Object, src, err)
			n.cluster.Rec.Metrics().Add("move_rejects", n.labels, 1)
			n.sendMsg(src, &wire.MoveAck{Object: p.Object, SpanID: p.SpanID, Epoch: p.Epoch,
				Ok: false, Err: err.Error()})
			return
		}
		n.seenSpans[p.SpanID] = true
	}
	respecStart := int64(n.CPU.FreeAt)
	if now := int64(n.now()); now > respecStart {
		respecStart = now
	}
	n.charge(uint64(n.cluster.Costs.MigrateCycles))
	conv := n.cluster.converterFor(n, n.cluster.Nodes[src].Spec.ID)
	prev := conv.Stats()
	hints := map[oid.OID]int{}
	for _, h := range p.Hints {
		hints[h.OID] = int(h.Node)
	}

	if p.IsArray {
		n.installArray(src, p, conv, hints)
		n.chargeConv(conv, prev)
		n.finishMoveIn(src, p, conv, prev, respecStart)
		if n.chaosOn() {
			n.sendMsg(src, &wire.MoveAck{Object: p.Object, SpanID: p.SpanID, Epoch: p.Epoch, Ok: true})
		}
		return
	}

	lc, err := n.loadCode(p.CodeOID)
	if err != nil {
		panic(fmt.Sprintf("kernel: node %d: %v", n.ID, err))
	}
	tmpl := lc.oc.Template
	// Upgrade an existing proxy or create a fresh entry; the source node
	// knows the OID, so the object is pinned for the local collector.
	n.exported[p.Object] = true
	o := n.proxyFor(p.Object, src)
	if o.Resident && !tmpl.Immutable {
		if n.chaosOn() {
			// A distinct span delivered an object that already lives here —
			// the residual double-move corner. Ack (the copy here is
			// authoritative) and flag it; the conflict metric makes the
			// disagreement visible instead of crashing the node.
			n.tracef("CONFLICT: %v arrived from node%d (span %d) but is already resident",
				p.Object, src, p.SpanID)
			n.cluster.Rec.Metrics().Add("move_conflicts", n.labels, 1)
			n.sendMsg(src, &wire.MoveAck{Object: p.Object, SpanID: p.SpanID, Epoch: p.Epoch, Ok: true})
			return
		}
		panic(fmt.Sprintf("kernel: node %d: %v arrived but is already resident", n.ID, p.Object))
	}
	o.Epoch = p.Epoch
	addr, err := n.alloc(arch.ObjDataOff + uint32(tmpl.DataSize()))
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	o.Kind = ObjPlain
	o.Resident = true
	o.LocStale = false
	o.chained = false
	o.Addr = addr
	o.Code = lc
	o.Fixed = p.Fixed
	o.Mon = newMonitor(tmpl.NumConds)
	n.byAddr[addr] = o
	n.st32(addr, o.TableIdx)
	for i, k := range tmpl.Slots {
		w, err := n.unwireValue(conv, k, p.Data[i], hints, src)
		if err != nil {
			panic(fmt.Sprintf("kernel: node %d: unmarshal slot %d: %v", n.ID, i, err))
		}
		n.st32(o.slotAddr(i), w)
	}

	// Rebuild fragments.
	byID := map[uint32]*Frag{}
	for i := range p.Frags {
		f := n.installFragment(src, &p.Frags[i], o, conv, hints)
		byID[p.Frags[i].FragID] = f
	}
	// Monitor state.
	if p.MonLocked {
		o.Mon.Holder = byID[p.MonHolder]
	}
	for _, id := range p.EntryQueue {
		o.Mon.Entry = append(o.Mon.Entry, byID[id])
	}
	for k, q := range p.CondQueues {
		for _, id := range q {
			o.Mon.Conds[k] = append(o.Mon.Conds[k], byID[id])
		}
	}
	n.chargeConv(conv, prev)
	n.finishMoveIn(src, p, conv, prev, respecStart)
	if n.chaosOn() {
		n.sendMsg(src, &wire.MoveAck{Object: p.Object, SpanID: p.SpanID, Epoch: p.Epoch, Ok: true})
	}
}

// installArray materializes a migrated array.
func (n *Node) installArray(src int, p *wire.Move, conv wire.Converter, hints map[oid.OID]int) {
	n.exported[p.Object] = true
	o := n.proxyFor(p.Object, src)
	o.Epoch = p.Epoch
	length := uint32(len(p.Data))
	addr, err := n.alloc(arch.ArrDataOff + 4*length)
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	o.Kind = ObjArray
	o.Resident = true
	o.LocStale = false
	o.chained = false
	o.Addr = addr
	o.ElemKind = ir.VK(p.ArrayElemKind)
	o.Len = length
	o.Fixed = p.Fixed
	n.byAddr[addr] = o
	n.st32(addr, o.TableIdx)
	n.st32(addr+arch.LenOff, length)
	for i, v := range p.Data {
		w, err := n.unwireValue(conv, o.ElemKind, v, hints, src)
		if err != nil {
			panic(fmt.Sprintf("kernel: unmarshal array: %v", err))
		}
		n.st32(o.slotAddr(i), w)
	}
}

// installFragment re-specializes one migrated thread fragment to this
// architecture: machine-independent activations are converted youngest
// first (as the templates require), then placed oldest-first in a fresh
// stack region — the paper's relocation pass (§3.5) — while register homes
// are refilled per this ISA's templates and callee-save areas are
// reconstructed.
func (n *Node) installFragment(src int, wf *wire.Fragment, obj *Obj,
	conv wire.Converter, hints map[oid.OID]int) *Frag {
	f := n.newFragment(wf.FragID, FragStateReady, Link{Node: wf.LinkNode, Frag: wf.LinkFrag})

	type convFrame struct {
		lf    *loadedFunc
		vars  []uint32
		temps []uint32
		stop  busstop.Info
		entry bool
	}
	// Convert youngest first (wire order), through the cached plan for
	// (function, stop, sender ISA) — see plan.go.
	peer := n.cluster.Nodes[src].Spec.ID
	cfs := make([]convFrame, len(wf.Acts))
	for i := range wf.Acts {
		a := &wf.Acts[i]
		lc, err := n.loadCode(a.CodeOID)
		if err != nil {
			panic(fmt.Sprintf("kernel: node %d: %v", n.ID, err))
		}
		lf := lc.funcs[a.FuncIndex]
		pl := n.planFor(lf, a.Stop, peer)
		cf := convFrame{lf: lf, stop: pl.stop, entry: pl.entry}
		if len(a.Vars) > 0 {
			cf.vars = make([]uint32, len(a.Vars))
		}
		for vi, v := range a.Vars {
			w, err := n.unwireClassValue(conv, pl.vars[vi].class, v, hints, src)
			if err != nil {
				panic(fmt.Sprintf("kernel: unmarshal var: %v", err))
			}
			cf.vars[vi] = w
		}
		if len(a.Temps) > 0 {
			cf.temps = make([]uint32, len(a.Temps))
		}
		for ti, v := range a.Temps {
			w, err := n.unwireClassValue(conv, pl.tempClassAt(ti), v, hints, src)
			if err != nil {
				panic(fmt.Sprintf("kernel: unmarshal temp: %v", err))
			}
			cf.temps[ti] = w
		}
		cfs[i] = cf
	}

	// Relocation/placement pass: lay records out oldest first, simulating
	// the register file to rebuild callee-save areas, exactly inverse to
	// the source-side unwinding.
	objAddr := n.mustAddr(obj)
	var regs [16]uint32
	place := f.stackBase
	fps := make([]uint32, len(cfs))
	for i := len(cfs) - 1; i >= 0; i-- {
		cf := cfs[i]
		t := cf.lf.fc.Template
		if place+uint32(t.Size) > f.stackLimit {
			panic("kernel: migrated stack exceeds stack region")
		}
		fp := place
		place += uint32(t.Size)
		fps[i] = fp
		clear(n.Mem[fp:place])
		// Control words.
		if i == len(cfs)-1 {
			// Oldest: caller is the fragment Link.
			n.st32(fp+uint32(t.SavedFPOff), f.stackBase)
			n.st32(fp+uint32(t.RetDescOff), descNone)
			n.st32(fp+uint32(t.RetPCOff), 0)
		} else {
			n.st32(fp+uint32(t.SavedFPOff), fps[i+1])
			caller := cfs[i+1]
			n.st32(fp+uint32(t.RetDescOff), caller.lf.desc)
			// Bus stop -> this machine's PC (works for exit-only stops:
			// number-to-PC conversion is exactly what they permit).
			n.st32(fp+uint32(t.RetPCOff), caller.stop.PC)
		}
		n.st32(fp+uint32(t.SelfOff), objAddr)
		n.st32(fp+uint32(t.TempBaseOff), fp+uint32(t.TempOff))
		// Callee-save area: the caller's (current) values of the home
		// registers this frame uses.
		for ri, r := range t.SavedRegs {
			n.st32(fp+uint32(t.SavedRegsOff)+uint32(4*ri), regs[r&0xf])
		}
		// Variables into their homes on this ISA.
		for vi, h := range t.Vars {
			w := uint32(0)
			if vi < len(cf.vars) {
				w = cf.vars[vi]
			}
			if h.InReg {
				regs[h.Reg&0xf] = w
			} else {
				n.st32(fp+uint32(h.Off), w)
			}
		}
		// Live temporaries.
		for ti, w := range cf.temps {
			n.st32(fp+uint32(t.TempOff)+uint32(4*ti), w)
		}
		f.nframes++
	}

	// Thread state of the top activation.
	top := cfs[0]
	t := top.lf.fc.Template
	f.fn = top.lf
	f.CPU.Regs = regs
	f.CPU.FP = fps[0]
	f.CPU.Self = objAddr
	f.CPU.TempBase = fps[0] + uint32(t.TempOff)
	f.CPU.LitBase = top.lf.litBase
	if top.entry {
		f.CPU.PC = 0
		f.CPU.TempDepth = 0
	} else {
		f.CPU.PC = top.stop.PC
		f.CPU.TempDepth = int32(len(top.temps))
	}

	// Scheduling state.
	switch wf.Status {
	case wire.FragRunnable:
		if wf.Executing {
			n.enqueue(f)
		} else {
			f.Status = FragStateBlockedCall
		}
	case wire.FragBlockedCall:
		f.Status = FragStateBlockedCall
	case wire.FragBlockedEntry:
		f.Status = FragStateBlockedEntry
	case wire.FragWaitCond:
		f.Status = FragStateWaitCond
		f.condIndex = wf.CondIndex
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvThreadResume, Frag: f.ID, Obj: uint32(obj.OID),
		A: uint64(len(wf.Acts))})
	return f
}
