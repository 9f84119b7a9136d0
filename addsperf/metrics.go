package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef declares one printed metric. The table is the single list the
// result line is built from; BENCHMARK.json declares the same names, units
// and directions (TestMetricsDeclared keeps the two in sync).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the compiler or the service sees. Each
// workload reports every one of them in the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics. A workload that never enters a
// layer reports 0 for it; METRICS.md lists which workloads each one is
// measured on and which end-to-end metric it should move.
var perLayer = []metricDef{
	{"parser.ms", "ms", "lower"},
	{"types.ms", "ms", "lower"},
	{"norm.ms", "ms", "lower"},
	{"norm.nodes", "count", "lower"},
	{"ir.ms", "ms", "lower"},
	{"ir.instrs", "count", "lower"},
	{"pathmatrix.summaries_ms", "ms", "lower"},
	{"pathmatrix.summaries_computed", "count", "lower"},
	{"pathmatrix.summaries_reuse_frac", "frac", "higher"},
	{"pathmatrix.fixpoint_ms", "ms", "lower"},
	{"pathmatrix.iterations", "count", "lower"},
	{"pathmatrix.clones", "count", "lower"},
	{"pathmatrix.memo_hit_frac", "frac", "higher"},
	{"pathmatrix.widenings", "count", "lower"},
	{"pathmatrix.analyses_per_fn", "count", "lower"},
	{"pathmatrix.interned_paths", "count", "lower"},
	{"alias.gpm_ms", "ms", "lower"},
	{"alias.classic_ms", "ms", "lower"},
	{"alias.klimit_ms", "ms", "lower"},
	{"alias.smg_ms", "ms", "lower"},
	{"depgraph.ms", "ms", "lower"},
	{"depgraph.edges", "count", "lower"},
	{"depgraph.carried_mem_deps", "count", "lower"},
	{"xform.licm_ms", "ms", "lower"},
	{"xform.unroll_ms", "ms", "lower"},
	{"xform.pipeline_ms", "ms", "lower"},
	{"xform.pipeline_ok_frac", "frac", "higher"},
	{"machine.scalar_ms", "ms", "lower"},
	{"machine.vliw_ms", "ms", "lower"},
	{"machine.sim_cycles", "count", "lower"},
	{"interp.check_ms", "ms", "lower"},
	{"service.hit_ms_p50", "ms", "lower"},
	{"service.miss_ms_p50", "ms", "lower"},
	{"service.latency_p99_ms", "ms", "lower"},
	{"service.build_ms", "ms", "lower"},
	{"service.overhead_ms", "ms", "lower"},
	{"service.queue_wait_ms_p99", "ms", "lower"},
	{"service.hit_frac", "frac", "higher"},
	{"service.coalesced", "count", "lower"},
	{"service.shed", "count", "lower"},
	{"service.resp_kb", "kB", "lower"},
	{"interp.reference_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"process.peak_rss_mb", "MB", "lower"},
}

// outcome is what a workload hands back: the item tally and every metric it
// measured, keyed by name.
type outcome struct {
	attempted int
	failed    int
	// unexpected counts failures outside the known-defect list (see
	// knownDefect); any makes the run incorrect.
	unexpected int
	// failures counts each distinct failure line (an item, or one failing
	// run inside an item) for the listing printed at exit.
	failures map[string]int
	values   map[string]float64
	// counters are the engine counters of each traced item, in order.
	counters map[string]engineDelta
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]int{}, values: map[string]float64{}}
}

// fail records one failed item and lists its details. known marks a
// failure the benchmark reports on purpose because the program has an
// open, named defect; it still counts as failed.
func (o *outcome) fail(known bool, msg string, details ...string) {
	o.failed++
	prefix := "FAIL "
	if known {
		prefix = "FAIL (known defect) "
	} else {
		o.unexpected++
	}
	o.failures[prefix+msg]++
	for _, d := range details {
		o.failures[prefix+"  "+d]++
	}
}

// printFailures lists every distinct failure line with how often it
// occurred, in a stable order.
func (o *outcome) printFailures(w io.Writer) {
	lines := make([]string, 0, len(o.failures))
	for l := range o.failures {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintf(w, "%s (x%d)\n", l, o.failures[l])
	}
	if o.attempted > 0 {
		fmt.Fprintf(w, "failed %d of %d attempted (failed_frac %.4f)\n",
			o.failed, o.attempted, float64(o.failed)/float64(o.attempted))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the printed line: the end-to-end metrics untraced, the
// per-layer metrics traced. Layers a workload does not enter read 0.
func (o *outcome) result(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := resultLine{
		Correct:   o.unexpected == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: o.values[d.name], Unit: d.unit}
	}
	return r
}

// missingEndToEnd lists end-to-end metrics a workload did not set.
func (o *outcome) missingEndToEnd() []string {
	var out []string
	for _, d := range endToEnd {
		if _, ok := o.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}
