// The metrics registry: counters, gauges and histograms keyed by a metric
// name plus a label string (e.g. "node=0,arch=sparc"). The registry is
// snapshotable at any simulated instant; snapshots are fully sorted so that
// identical runs serialize to identical bytes.

package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// NumHistBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with v < 2^i (the last bucket is unbounded).
const NumHistBuckets = 24

// Hist is a power-of-two-bucketed histogram.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [NumHistBuckets]uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	b := bits.Len64(v) // v < 2^Len64(v)
	if b >= NumHistBuckets {
		b = NumHistBuckets - 1
	}
	h.Buckets[b]++
}

// Mean returns the average observation (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Registry accumulates metrics. A single mutex guards the maps: the
// parallel engine's node goroutines add concurrently, and every update is
// commutative (counter sums, per-node-labelled gauges, histogram
// count/sum/max/buckets), so the final state is deterministic regardless
// of interleaving.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	gauges   map[string]int64
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]uint64{},
		gauges:   map[string]int64{},
		hists:    map[string]*Hist{},
	}
}

// Key builds the storage key for name and a label string. Labels must be
// pre-sorted by the caller (the fixed call sites in the kernel use literal
// label orders, which keeps runs comparable).
func Key(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// SplitKey splits a storage key back into name and labels.
func SplitKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// NodeLabels builds the standard per-node label set.
func NodeLabels(node int, arch string) string {
	return fmt.Sprintf("node=%d,arch=%s", node, arch)
}

// Add increments a counter.
func (r *Registry) Add(name, labels string, delta uint64) {
	r.mu.Lock()
	r.counters[Key(name, labels)] += delta
	r.mu.Unlock()
}

// Counter reads a counter (0 when absent).
func (r *Registry) Counter(name, labels string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[Key(name, labels)]
}

// SetGauge records an instantaneous value.
func (r *Registry) SetGauge(name, labels string, v int64) {
	r.mu.Lock()
	r.gauges[Key(name, labels)] = v
	r.mu.Unlock()
}

// Gauge reads a gauge (0 when absent).
func (r *Registry) Gauge(name, labels string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[Key(name, labels)]
}

// Observe records a histogram observation.
func (r *Registry) Observe(name, labels string, v uint64) {
	k := Key(name, labels)
	r.mu.Lock()
	h := r.hists[k]
	if h == nil {
		h = &Hist{}
		r.hists[k] = h
	}
	h.Observe(v)
	r.mu.Unlock()
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  uint64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// HistPoint is one histogram in a snapshot. Buckets are trimmed to the
// last non-empty bucket.
type HistPoint struct {
	Name    string   `json:"name"`
	Labels  string   `json:"labels,omitempty"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets"`
}

// Snapshot is the registry's full state at one simulated instant, fully
// sorted (deterministic).
type Snapshot struct {
	AtMicros   int64          `json:"at_micros"`
	Counters   []CounterPoint `json:"counters"`
	Gauges     []GaugePoint   `json:"gauges"`
	Histograms []HistPoint    `json:"histograms"`
}

// Snapshot captures the registry at simulated time `at`.
func (r *Registry) Snapshot(at int64) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{AtMicros: at}
	keys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name, labels := SplitKey(k)
		s.Counters = append(s.Counters, CounterPoint{Name: name, Labels: labels, Value: r.counters[k]})
	}
	keys = keys[:0]
	for k := range r.gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name, labels := SplitKey(k)
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Labels: labels, Value: r.gauges[k]})
	}
	keys = keys[:0]
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := r.hists[k]
		last := 0
		for i, b := range h.Buckets {
			if b != 0 {
				last = i + 1
			}
		}
		name, labels := SplitKey(k)
		s.Histograms = append(s.Histograms, HistPoint{
			Name: name, Labels: labels, Count: h.Count, Sum: h.Sum, Max: h.Max,
			Buckets: append([]uint64(nil), h.Buckets[:last]...),
		})
	}
	return s
}
