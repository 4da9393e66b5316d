package main

import (
	"cmp"
	"math"
	"sort"
	"strings"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// metric is one reported number. NA, when set, says why the value is
// undefined or its layer is not armed on this workload; the tables print
// it in place of the value.
type metric struct {
	Name  string
	Unit  string
	Value float64
	NA    string
}

// counts are the per-layer counts one traced execution reads from public
// state after Run. They are deterministic: every execution of a seed must
// reproduce them exactly.
type counts map[string]float64

// snapshotSum totals a counter or gauge over all its label sets; with a
// non-empty label filter only label sets containing it count.
func snapshotSum(s obs.Snapshot, name, label string) float64 {
	var v float64
	for _, c := range s.Counters {
		if c.Name == name && strings.Contains(c.Labels, label) {
			v += float64(c.Value)
		}
	}
	for _, g := range s.Gauges {
		if g.Name == name && strings.Contains(g.Labels, label) {
			v += float64(g.Value)
		}
	}
	return v
}

// dirDecreeKinds are the wire kinds of the directory's decree rounds,
// single-slot and group; their msg_bytes make up dir.decree_bytes.
var dirDecreeKinds = []string{
	"dirprepare", "dirpromise", "diraccept", "diraccepted", "dirlearn",
	"dirgprepare", "dirgpromise", "dirgaccept", "dirgaccepted", "dirglearn",
}

// readCounts reads a finished cluster's per-layer counts.
func readCounts(cl *kernel.Cluster, snap obs.Snapshot) counts {
	c := counts{}
	for _, n := range cl.Nodes {
		c["arch.instrs"] += float64(n.Instrs)
		c["arch.cycles"] += float64(n.CPU.Cycles)
	}
	for _, name := range []string{"migrations", "remote_invokes", "proxy_forwards", "msgs_sent",
		"gc_cycles", "retransmits", "move_commits", "move_aborts", "move_degraded", "node_suspects"} {
		c["kernel."+name] = snapshotSum(snap, name, "")
	}
	c["wire.conv_calls"] = float64(cl.ConvStats().Calls)
	c["wire.msg_bytes"] = snapshotSum(snap, "msg_bytes", "")
	c["netsim.events"] = float64(cl.Sim.Events())
	nc := cl.Net.Counters()
	c["netsim.frames"] = float64(nc.Frames)
	c["netsim.wire_bytes"] = float64(nc.Bytes)
	c["netsim.busy_micros"] = float64(nc.BusyMicros)
	c["sim.micros"] = float64(cl.Sim.Now())
	for _, k := range dirDecreeKinds {
		c["dir.decree_bytes"] += snapshotSum(snap, "msg_bytes", "msg="+k)
	}
	for m, name := range map[string]string{
		"dir.decrees": "dir_decrees", "dir.decree_rounds": "dir_decree_rounds",
		"dir.lookups": "dir_lookups", "dir.lease_hits": "dir_lease_hits",
		"dir.group_decrees": "dir_group_decrees", "dir.group_slots": "dir_group_slots",
		"dir.degraded": "dir_degraded", "dir.reroutes": "dir_reroutes",
		"auto.decisions": "auto_decisions", "auto.group_moves": "group_moves",
		"auto.moved_objs": "group_move_objs", "auto.group_frame_bytes": "group_move_frame_bytes",
		"chaos.injected": "chaos_injected",
	} {
		c[m] = snapshotSum(snap, name, "")
	}
	var convOut, respec, wireT []int64
	var hopBytes float64
	for _, sp := range cl.Rec.Spans() {
		if !sp.Done {
			continue
		}
		convOut = append(convOut, sp.ConvOutMicros())
		wireT = append(wireT, sp.WireMicros())
		respec = append(respec, sp.RespecMicros())
		hopBytes += float64(sp.WireBytes)
	}
	c["hops"] = float64(len(convOut))
	c["hop_bytes"] = hopBytes
	c["obs.spans"] = float64(len(cl.Rec.Spans()))
	c["obs.dropped"] = float64(cl.Rec.Dropped())
	c["obs.events"] = float64(len(cl.Rec.Events())) + c["obs.dropped"]
	// Phase medians are stored in simulated µs; -1 marks an empty sample.
	c["p50.convout"] = percentile(convOut, 0.5)
	c["p50.respec"] = percentile(respec, 0.5)
	c["p50.wire"] = percentile(wireT, 0.5)
	return c
}

// percentile returns the nearest-rank percentile of xs (-1 when empty).
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rankOf(len(s), p)-1])
}

// rankOf is the 1-based nearest rank of percentile p in n samples.
func rankOf(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n))))
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianOf returns the median of f over the executions.
func medianOf(es []*execution, f func(*execution) float64) float64 {
	xs := make([]float64, len(es))
	for i, e := range es {
		xs[i] = f(e)
	}
	return median(xs)
}

// layerInputs is everything the per-layer table is computed from.
type layerInputs struct {
	w         *Workload
	traced    []*execution
	counts    counts
	selfNanos map[string]int64 // CPU profile nanoseconds per layer, all traced Runs
	overhead  float64          // obs.trace_overhead
}

// perLayer computes the per-layer metrics of one traced run.
func perLayer(in layerInputs) []metric {
	c, tr := in.counts, in.traced
	n := float64(len(tr))
	t := func(f func(*tracedTimes) float64) float64 {
		return medianOf(tr, func(e *execution) float64 { return f(e.traced) })
	}
	runS := medianOf(tr, func(e *execution) float64 { return e.runS })
	self := func(layer string) float64 { return float64(in.selfNanos[layer]) / 1e9 / n }
	var out []metric
	add := func(name, unit string, v float64, na string) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, NA: na})
	}
	ratio := func(num, den float64) (float64, string) {
		if den == 0 {
			return 0, "no samples"
		}
		return num / den, ""
	}
	dirNA, autoNA, chaosNA := "", "", ""
	if in.w.DirReplicas == 0 {
		dirNA = "directory off"
	}
	if in.w.AutoPolicy == "" {
		autoNA = "placement off"
	}
	if in.w.Chaos == nil {
		chaosNA = "chaos off"
	}
	hops := c["hops"]
	hopNA := ""
	if hops == 0 {
		hopNA = "no migrations"
	}
	simMS := func(key string) (float64, string) {
		if c[key] < 0 {
			return 0, "no migrations"
		}
		return c[key] / 1000, ""
	}

	add("lang.parse_s", "s", t(func(x *tracedTimes) float64 { return x.parse }), "")
	add("lang.check_s", "s", t(func(x *tracedTimes) float64 { return x.check }), "")
	add("ir.build_s", "s", t(func(x *tracedTimes) float64 { return x.irBuild }), "")
	add("pta.facts_s", "s", t(func(x *tracedTimes) float64 { return x.facts }), autoNA)
	add("codegen.compile_s", "s", t(func(x *tracedTimes) float64 { return x.codegen }), "")
	add("codegen.code_bytes", "bytes", float64(tr[0].traced.codeBytes), "")

	add("kernel.new_cluster_s", "s", t(func(x *tracedTimes) float64 { return x.newCluster }), "")
	add("kernel.start_s", "s", t(func(x *tracedTimes) float64 { return x.start }), "")
	add("kernel.setup_alloc_mb", "MiB", t(func(x *tracedTimes) float64 { return x.setupAllocMB }), "")
	add("kernel.run_s", "s", runS, "")
	add("kernel.self_s", "s", self("kernel"), "")
	add("kernel.migrate.self_s", "s", self("kernel.migrate"), "")
	add("kernel.invoke.self_s", "s", self("kernel.invoke"), "")
	for _, k := range []string{"migrations", "remote_invokes", "proxy_forwards", "msgs_sent", "gc_cycles"} {
		add("kernel."+k, "count", c["kernel."+k], "")
	}
	v, na := simMS("p50.convout")
	add("kernel.move_convout_ms_p50", "sim_ms", v, na)
	v, na = simMS("p50.respec")
	add("kernel.move_respec_ms_p50", "sim_ms", v, na)

	add("arch.self_s", "s", self("arch"), "")
	add("arch.instrs", "count", c["arch.instrs"], "")
	add("arch.cycles", "count", c["arch.cycles"], "")
	add("arch.host_mips", "MIPS", c["arch.instrs"]/runS/1e6, "")
	add("arch.fuse_builds", "count", float64(tr[0].traced.fuseBuilds), "")

	add("wire.self_s", "s", self("wire"), "")
	add("wire.conv_calls", "count", c["wire.conv_calls"], "")
	v, na = ratio(c["wire.conv_calls"], hops)
	add("wire.conv_calls_per_move", "count", v, cmp.Or(hopNA, na))
	add("wire.msg_bytes", "bytes", c["wire.msg_bytes"], "")
	v, na = ratio(c["hop_bytes"], hops)
	add("wire.move_bytes_per_move", "bytes", v, cmp.Or(hopNA, na))
	v, na = simMS("p50.wire")
	add("wire.move_wire_ms_p50", "sim_ms", v, na)

	add("netsim.self_s", "s", self("netsim"), "")
	add("netsim.events", "count", c["netsim.events"], "")
	v, na = ratio(runS*1e9, c["netsim.events"])
	add("netsim.ns_per_event", "ns", v, na)
	add("netsim.frames", "count", c["netsim.frames"], "")
	add("netsim.wire_bytes", "bytes", c["netsim.wire_bytes"], "")
	v, na = ratio(c["netsim.busy_micros"], c["sim.micros"])
	add("netsim.busy_frac", "ratio", v, na)

	add("dir.self_s", "s", self("dir"), dirNA)
	add("dir.decrees", "count", c["dir.decrees"], dirNA)
	add("dir.decree_rounds", "count", c["dir.decree_rounds"], dirNA)
	add("dir.decree_bytes", "bytes", c["dir.decree_bytes"], dirNA)
	v, na = ratio(c["dir.decree_bytes"], c["dir.decrees"])
	add("dir.bytes_per_decree", "bytes", v, cmp.Or(dirNA, na))
	add("dir.lookups", "count", c["dir.lookups"], dirNA)
	add("dir.lease_hits", "count", c["dir.lease_hits"], dirNA)
	v, na = ratio(c["dir.lease_hits"], c["dir.lease_hits"]+c["dir.lookups"])
	add("dir.lease_hit_ratio", "ratio", v, cmp.Or(dirNA, na))
	for _, k := range []string{"group_decrees", "group_slots", "degraded", "reroutes"} {
		add("dir."+k, "count", c["dir."+k], dirNA)
	}

	add("auto.self_s", "s", self("auto"), autoNA)
	for _, k := range []string{"decisions", "group_moves", "moved_objs"} {
		add("auto."+k, "count", c["auto."+k], autoNA)
	}
	v, na = ratio(c["auto.group_frame_bytes"], c["auto.moved_objs"])
	add("auto.bytes_per_moved_obj", "bytes", v, cmp.Or(autoNA, na))

	add("chaos.self_s", "s", self("chaos"), chaosNA)
	add("chaos.injected", "count", c["chaos.injected"], chaosNA)
	for _, k := range []string{"retransmits", "move_commits", "move_aborts", "move_degraded", "node_suspects"} {
		add("kernel."+k, "count", c["kernel."+k], chaosNA)
	}

	add("obs.self_s", "s", self("obs"), "")
	add("obs.events", "count", c["obs.events"], "")
	add("obs.dropped", "count", c["obs.dropped"], "")
	add("obs.spans", "count", c["obs.spans"], "")
	add("obs.snapshot_s", "s", t(func(x *tracedTimes) float64 { return x.snapshot }), "")
	add("obs.export_s", "s", t(func(x *tracedTimes) float64 { return x.export }), "")
	add("obs.trace_overhead", "ratio", in.overhead, "")

	add("runtime.gc_self_s", "s", t(func(x *tracedTimes) float64 { return x.gcCPU }), "")
	add("runtime.gc_cycles", "count", t(func(x *tracedTimes) float64 { return float64(x.gcCycles) }), "")
	return out
}
