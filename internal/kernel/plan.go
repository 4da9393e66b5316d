// Conversion-plan caching: template-driven frame conversion (MD→MI on
// the way out, MI→MD on the way in) re-resolves every variable's
// register home, frame offset and value kind on every hop, although all
// of that is static per (function, bus stop). A convPlan compiles the
// resolution once — on the first conversion at a stop — into flat slot
// descriptors, and is cached on the loadedFunc keyed by (bus stop, peer
// ISA); together with the code object and this node's own ISA that is
// the paper's (code object, bus stop, ISA pair) key. Repeated hops of
// the same thread (the kilroy tour, mobile13) then skip template
// interpretation entirely.
//
// Plans change how fast conversion runs, never what it does: the
// converter call sequence (which feeds the simulated conversion cost via
// chargeConv), the wire bytes, and the resulting memory images must be
// identical to the template-interpreting path. The one sanctioned
// deviation is live-set sharpening (on unless Config.NoSharpen): slots the
// stop's LiveVars mask proves dead ship the canonical zero instead of
// their stale payload. That substitutes the input word of the same
// converter call — sequence, sizes, charges and events are untouched,
// and the restored slot differs only in bits no execution can read.

package kernel

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/busstop"
	"repro/internal/ir"
	"repro/internal/oid"
	"repro/internal/wire"
)

// slotClass collapses ir.VK to the three conversion behaviors a slot can
// have on the wire.
type slotClass uint8

const (
	slotInt  slotClass = iota // identity word (ints, bools, chars)
	slotReal                  // float codec through the converter
	slotPtr                   // reference swizzle / string by-value copy
)

func classOf(k ir.VK) slotClass {
	switch k {
	case ir.VKReal:
		return slotReal
	case ir.VKPtr:
		return slotPtr
	}
	return slotInt
}

// varPlan is one variable's resolved home and conversion class. dead
// marks slots the stop's LiveVars mask proves unread after resumption;
// their payload word is replaced by zero (the canonical zero for the
// slot's class in this node's formats) before conversion, so the
// converter call sequence, wire sizes, charges and events stay identical
// while the shipped bits become canonical. Pointer slots are never
// marked: their conversion has observable side effects (string copies,
// swizzle exports), so canonicalizing them would not be charge-neutral.
type varPlan struct {
	inReg bool
	reg   uint8
	off   uint32
	class slotClass
	dead  bool
	zero  uint32
}

// planKey identifies a plan within one loadedFunc: the bus stop
// (wire.EntryStop for entry frames) and the ISA on the other side of the
// conversion.
type planKey struct {
	stop uint16
	peer arch.ID
}

// convPlan is the compiled conversion plan for one (function, bus stop,
// peer ISA): variable homes, temp-slot classes and the stop record, all
// resolved once.
type convPlan struct {
	vars    []varPlan
	temps   []slotClass // classes of stop.TempKinds
	result  slotClass   // class of deeper temp slots (stop.ResultKind)
	stop    busstop.Info
	entry   bool
	tempOff uint32
}

// tempClassAt mirrors tempKindAt over precomputed classes.
func (pl *convPlan) tempClassAt(j int) slotClass {
	if j < len(pl.temps) {
		return pl.temps[j]
	}
	return pl.result
}

// planFor returns the cached plan for (lf, stopNum, peer), compiling it
// on first use. stopNum is wire.EntryStop for entry frames. An unknown
// stop number panics exactly like the template-interpreting path did.
func (n *Node) planFor(lf *loadedFunc, stopNum uint16, peer arch.ID) *convPlan {
	key := planKey{stop: stopNum, peer: peer}
	if pl, ok := lf.plans[key]; ok {
		return pl
	}
	t := lf.fc.Template
	pl := &convPlan{vars: make([]varPlan, len(t.Vars)), tempOff: uint32(t.TempOff)}
	for i, h := range t.Vars {
		pl.vars[i] = varPlan{inReg: h.InReg, reg: uint8(h.Reg & 0xf),
			off: uint32(h.Off), class: classOf(h.Kind)}
	}
	if stopNum == wire.EntryStop {
		pl.entry = true
	} else {
		stop, err := lf.fc.Stops.ByStop(int(stopNum))
		if err != nil {
			panic(fmt.Sprintf("kernel: %v", err))
		}
		pl.stop = stop
		pl.temps = make([]slotClass, len(stop.TempKinds))
		for i, k := range stop.TempKinds {
			pl.temps[i] = classOf(k)
		}
		pl.result = classOf(stop.ResultKind)
		if !n.cluster.NoSharpen {
			// Slots >= 64 are outside the mask and stay live; entry frames
			// never reach here (no stop, nothing is dead before first run).
			for v := range pl.vars {
				vp := &pl.vars[v]
				if v >= 64 || vp.class == slotPtr || stop.LiveVars&(1<<uint(v)) != 0 {
					continue
				}
				vp.dead = true
				if vp.class == slotReal {
					vp.zero = n.Spec.Float.Enc(0)
				}
			}
		}
	}
	if lf.plans == nil {
		lf.plans = make(map[planKey]*convPlan)
	}
	lf.plans[key] = pl
	return pl
}

// wireClassValue is wireTempValue dispatched on a precomputed class. The
// pointer case delegates to the reference implementation — swizzling
// touches kernel maps and must stay in one place.
func (n *Node) wireClassValue(conv wire.Converter, c slotClass, w uint32) (wire.Value, error) {
	switch c {
	case slotReal:
		return conv.RealToWire(w, n.Spec.Float), nil
	case slotPtr:
		return n.wireTempValue(conv, ir.VKPtr, w)
	}
	return conv.IntToWire(w), nil
}

// unwireClassValue is unwireValue dispatched on a precomputed class.
func (n *Node) unwireClassValue(conv wire.Converter, c slotClass, v wire.Value,
	hints map[oid.OID]int, src int) (uint32, error) {
	switch c {
	case slotReal:
		return conv.RealFromWire(v, n.Spec.Float)
	case slotPtr:
		return n.unwireValue(conv, ir.VKPtr, v, hints, src)
	}
	return conv.IntFromWire(v)
}

// marshalFramePlanned converts one activation to machine-independent
// form through a compiled plan. One backing array serves vars, temps and
// the shipped-value list — sized from the plan, so steady-state
// marshalling performs a single allocation per frame.
func (n *Node) marshalFramePlanned(conv wire.Converter, fi frameInfo, pl *convPlan) (wire.MIActivation, []wire.Value) {
	act := wire.MIActivation{
		CodeOID:   fi.lf.code.oc.CodeOID,
		FuncIndex: uint16(fi.lf.idx),
	}
	nt := 0
	if fi.entry {
		act.Stop = wire.EntryStop
	} else {
		act.Stop = uint16(fi.stop.Stop)
		nt = fi.tempDepth
	}
	nv := len(pl.vars)
	if nv+nt == 0 {
		return act, nil
	}
	all := make([]wire.Value, nv+nt)
	n.MarshaledVarSlots += uint64(nv)
	for i := range pl.vars {
		vp := &pl.vars[i]
		var w uint32
		if vp.dead {
			w = vp.zero
			n.CanonicalizedVarSlots++
		} else if vp.inReg {
			w = fi.regs[vp.reg]
		} else {
			w = n.ld32(fi.fp + vp.off)
		}
		v, err := n.wireClassValue(conv, vp.class, w)
		if err != nil {
			panic(fmt.Sprintf("kernel: marshal %s var %s: %v",
				fi.lf.name(), fi.lf.fc.Template.Vars[i].Name, err))
		}
		all[i] = v
	}
	for j := 0; j < nt; j++ {
		w := n.ld32(fi.fp + pl.tempOff + uint32(4*j))
		v, err := n.wireClassValue(conv, pl.tempClassAt(j), w)
		if err != nil {
			panic(fmt.Sprintf("kernel: marshal %s temp %d: %v", fi.lf.name(), j, err))
		}
		all[nv+j] = v
	}
	if nv > 0 {
		act.Vars = all[:nv:nv]
	}
	if nt > 0 {
		act.Temps = all[nv:]
	}
	return act, all
}
