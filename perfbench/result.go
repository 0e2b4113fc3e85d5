package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of HOURS sees, printed with -trace 0.
// Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"cpu_us_per_query", "us"},
	{"heap_mb", "MiB"},
	{"hops_per_query", "hops"},
}

// perLayer are the per-layer metrics, printed with -trace 1. A workload
// that does not exercise a layer reports it as 0.
var perLayer = []metricDef{
	{"transport.calls_per_query", "calls"},
	{"transport.failed_calls_per_query", "calls"},
	{"transport.retry.self_us", "us"},
	{"transport.traced.self_us", "us"},
	{"transport.instrument.self_us", "us"},
	{"transport.base.self_us", "us"},
	{"transport.pool.dials", "count"},
	{"wire.frames_per_flush", "frames"},
	{"wire.bytes_per_frame", "B"},
	{"wire.bytes_per_query", "B"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"node.handle.self_us", "us"},
	{"node.hops.hierarchical", "hops"},
	{"node.hops.greedy", "hops"},
	{"node.hops.backward", "hops"},
	{"node.hops.nephew", "hops"},
	{"node.maintain.round_ms", "ms"},
	{"node.maintain.retries_per_round", "calls"},
	{"node.maintain.cpu_ms", "ms"},
	{"overload.admit_ns", "ns"},
	{"core.query_us", "us"},
	{"core.hops.hierarchical", "hops"},
	{"core.hops.overlay", "hops"},
	{"core.hops.backward", "hops"},
	{"core.hops.nephew", "hops"},
	{"overlay.route_us", "us"},
	{"overlay.route_ns_per_hop", "ns"},
	{"core.setup.tree_s", "s"},
	{"core.setup.system_s", "s"},
	{"go.allocs_per_query", "allocs"},
	{"go.alloc_bytes_per_query", "B"},
	{"go.gc_cycles_per_kquery", "count"},
	{"go.gc_pause_us_per_query", "us"},
	{"load.qps", "1/s"},
	{"trace.e2e_us", "us"},
	{"trace.gap_us", "us"},
	{"trace.shim_us_per_query", "us"},
	{"trace.qps_drop_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; it marshals to the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	wrong error    // first oracle violation, when Correct is false
	notes []string // human-readable lines printed before the JSON line
}

func newResult() *result {
	return &result{Correct: true, Metrics: make(map[string]metric)}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// complete keeps only the metrics of the chosen mode, attaches their
// units, fills layers the workload does not exercise with 0, and refuses
// an end-to-end metric the workload failed to measure.
func (r *result) complete(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		out[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	r.Metrics = out
	return nil
}

// quantile returns the q-quantile (nearest rank) of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per divides a total by a count, 0 when nothing was counted.
func per(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
