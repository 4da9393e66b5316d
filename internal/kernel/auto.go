// The kernel side of adaptive placement: a periodic cluster-level tick
// builds an auto.View from each node's typed placement feed (remote
// invocations sent, by target OID) and object table, consults the policy
// engine, and executes its decisions as (batched cohort) migrations. The
// tick is a weak simulation event — placement never keeps a finished
// program alive — and everything here is gated on Config.AutoPolicy: a
// policy-free run leaves every feed nil and carries no trace of it.

package kernel

import (
	"fmt"

	"repro/internal/auto"
	"repro/internal/ir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
)

// DefaultAutoPeriodMicros is the policy tick period when the config leaves
// it zero: 20 simulated milliseconds, a few times the cost of one move.
const DefaultAutoPeriodMicros = 20000

// armAuto builds the policy engine and schedules the first tick.
func (c *Cluster) armAuto() error {
	eng, err := auto.New(c.AutoPolicy, auto.Static{Cohorts: c.AutoCohorts, Pinned: c.AutoPinned})
	if err != nil {
		return err
	}
	c.autoEng = eng
	for _, n := range c.Nodes {
		n.autoCalls = map[uint32]uint64{}
	}
	c.autoCohort = map[string]map[string]bool{}
	for _, set := range c.AutoCohorts {
		for _, cls := range set {
			m := c.autoCohort[cls]
			if m == nil {
				m = map[string]bool{}
				c.autoCohort[cls] = m
			}
			for _, other := range set {
				m[other] = true
			}
		}
	}
	c.autoPinned = map[string]bool{}
	for _, cls := range c.AutoPinned {
		c.autoPinned[cls] = true
	}
	c.Sim.AtWeak(c.autoPeriod(), c.autoTick)
	return nil
}

func (c *Cluster) autoPeriod() netsim.Micros {
	if c.AutoPeriodMicros > 0 {
		return netsim.Micros(c.AutoPeriodMicros)
	}
	return DefaultAutoPeriodMicros
}

// AutoDecisionLog returns the policy engine's canonical decision log (nil
// when no policy is armed).
func (c *Cluster) AutoDecisionLog() []string {
	if c.autoEng == nil {
		return nil
	}
	return c.autoEng.Log()
}

// autoTick is one policy period: observe, decide, execute, re-arm.
func (c *Cluster) autoTick() {
	decs := c.autoEng.Tick(c.autoView())
	for i, d := range decs {
		c.Rec.Emit(obs.Event{At: int64(c.Sim.Now()), Node: int32(d.From),
			Kind: obs.EvAutoDecision, Obj: d.Obj, A: uint64(i), B: uint64(d.To),
			Str: fmt.Sprintf("%s moves obj %d (%s)", d.Policy, d.Obj, d.Class)})
		c.Rec.Metrics().Add("auto_decisions", "policy="+d.Policy, 1)
		d := d
		c.Sim.AtNode(d.From, 0, func() { c.Nodes[d.From].execAutoMove(d) })
	}
	c.Sim.AtWeak(c.autoPeriod(), c.autoTick)
}

// autoView snapshots the cluster for the policy engine: per-node
// instruction pressure, each node's cumulative remote calls per target
// object, and every resident plain object with its pin status.
func (c *Cluster) autoView() auto.View {
	v := auto.View{Now: int64(c.Sim.Now()), Nodes: len(c.Nodes)}
	v.Instrs = make([]uint64, len(c.Nodes))
	for i, n := range c.Nodes {
		v.Instrs[i] = n.Instrs
		for id, cnt := range n.autoCalls {
			v.ObjCalls = append(v.ObjCalls, auto.ObjCall{OID: id, Src: n.ID, Count: cnt})
		}
		for _, o := range n.objects {
			if !o.Resident || o.Kind != ObjPlain || o.Code == nil {
				continue
			}
			cls := o.Code.oc.Name
			v.Objects = append(v.Objects, auto.ObjInfo{
				OID: uint32(o.OID), Class: cls, Node: n.ID,
				Pinned: o.Fixed || o.transit != nil ||
					c.autoPinned[cls] || o.Code.oc.Template.Immutable,
			})
		}
	}
	return v
}

// execAutoMove executes one placement decision on the owning node,
// re-validating against the live object table (the object may have moved,
// fixed itself, or entered transit since the tick observed it), then
// migrating the object's whole co-resident cohort in one batched transfer.
func (n *Node) execAutoMove(d auto.Decision) {
	o, ok := n.objects[oid.OID(d.Obj)]
	if !ok || !o.Resident || o.Fixed || o.transit != nil {
		return
	}
	cohort := n.cohortOf(o)
	if len(cohort) > 1 && !n.cluster.AutoNoBatch {
		n.moveGroup(cohort, d.To, false)
		return
	}
	n.moveObject(o, d.To, false)
}

// cohortOf expands o to its co-resident group-migration cohort: the
// transitive closure, over reference slots, of resident movable objects
// whose classes the points-to analysis placed in one cohort with o's class.
// Traversal order is the object's slot order, so the cohort list — and the
// resulting MoveGroup — is deterministic.
func (n *Node) cohortOf(o *Obj) []*Obj {
	out := []*Obj{o}
	if o.Kind != ObjPlain || o.Code == nil {
		return out
	}
	set := n.cluster.autoCohort[o.Code.oc.Name]
	if set == nil {
		return out
	}
	seen := map[*Obj]bool{o: true}
	for qi := 0; qi < len(out); qi++ {
		cur := out[qi]
		tmpl := cur.Code.oc.Template
		for i, k := range tmpl.Slots {
			if k != ir.VKPtr {
				continue
			}
			w := n.ld32(cur.slotAddr(i))
			if w == 0 {
				continue
			}
			p := n.byAddr[w]
			if p == nil || seen[p] || !p.Resident || p.Fixed || p.transit != nil {
				continue
			}
			if p.Kind != ObjPlain || p.Code == nil || p.Code.oc.Template.Immutable {
				continue
			}
			if !set[p.Code.oc.Name] {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
