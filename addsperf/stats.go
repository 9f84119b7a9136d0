package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core/pathmatrix"
)

// percentile is the nearest-rank percentile of the values: the smallest
// value with at least p of the samples at or below it. p is in (0, 1].
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// timeWeighted is the percentile of the values weighted by themselves: the
// smallest value v such that values up to v account for at least p of the
// total.
func timeWeighted(values []float64, p float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var total float64
	for _, v := range s {
		total += v
	}
	var acc float64
	for _, v := range s {
		acc += v
		if acc >= p*total {
			return v
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procStatusMB reads one kB field of /proc/self/status (VmRSS, VmHWM) in
// MB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func nproc() int { return runtime.NumCPU() }

// processCPU reads the process's CPU clock: every thread's time, the
// garbage collector's background workers included. The single-worker
// workloads time items with it; it does not count time the host takes the
// CPU away, which on a shared machine moved wall-clock item times by up to
// 30% between runs of one seed.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// engineDelta accumulates pathmatrix counter deltas taken around single
// items. The counters are process-wide, so deltas are only taken where one
// item runs at a time.
type engineDelta struct {
	analyses, iterations, widenings, clones uint64
	memoHits, memoMisses                    uint64
	summaryComputed, summaryReused          uint64
}

func delta(before, after pathmatrix.Stats) engineDelta {
	return engineDelta{
		analyses:        after.Analyses - before.Analyses,
		iterations:      after.Iterations - before.Iterations,
		widenings:       after.Widenings - before.Widenings,
		clones:          after.Clones - before.Clones,
		memoHits:        after.MemoHits - before.MemoHits,
		memoMisses:      after.MemoMisses - before.MemoMisses,
		summaryComputed: after.SummaryComputed - before.SummaryComputed,
		summaryReused:   after.SummaryReused - before.SummaryReused,
	}
}

func (e *engineDelta) add(d engineDelta) {
	e.analyses += d.analyses
	e.iterations += d.iterations
	e.widenings += d.widenings
	e.clones += d.clones
	e.memoHits += d.memoHits
	e.memoMisses += d.memoMisses
	e.summaryComputed += d.summaryComputed
	e.summaryReused += d.summaryReused
}

// fields names the counters for the repeatability report.
func (e engineDelta) fields() map[string]uint64 {
	return map[string]uint64{
		"analyses": e.analyses, "iterations": e.iterations, "widenings": e.widenings,
		"clones": e.clones, "memo_hits": e.memoHits, "memo_misses": e.memoMisses,
		"summaries_computed": e.summaryComputed, "summaries_reused": e.summaryReused,
	}
}

// frac returns a/(a+b), or 0 when both are 0.
func frac(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// layerStats gathers the per-layer numbers every compiler-driving workload
// reports: engine counter deltas, IR sizes and dependence counts.
type layerStats struct {
	engine        engineDelta
	perItem       map[string]engineDelta // by item key
	functions     int                    // functions whose main analysis ran
	normNodes     int
	irInstrs      int
	depEdges      int
	carriedMem    int
	pipeTried     int
	pipeOK        int
	simCycles     int64
	referenceTime time.Duration
}

// item records the engine counters one item moved, under a key that names
// the same item in every run of the seed. Only one item runs at a time
// wherever this is called.
func (l *layerStats) item(key string, before, after pathmatrix.Stats) {
	d := delta(before, after)
	l.engine.add(d)
	if l.perItem == nil {
		l.perItem = map[string]engineDelta{}
	}
	l.perItem[key] = d
}

// report writes the per-layer metrics shared by paper, gen and the
// service's direct builds: self times per item from the tracer, counters
// per item.
func (l *layerStats) report(o *outcome, tr *tracer, items int, busy time.Duration) {
	if items == 0 {
		return
	}
	o.counters = l.perItem
	n := float64(items)
	self := tr.selfTimes()
	for metric, span := range map[string]string{
		"parser.ms": "parser", "types.ms": "types", "norm.ms": "norm", "ir.ms": "ir",
		"pathmatrix.summaries_ms": "pathmatrix.summaries", "pathmatrix.fixpoint_ms": "pathmatrix.fixpoint",
		"alias.gpm_ms": "alias.gpm", "alias.classic_ms": "alias.classic",
		"alias.klimit_ms": "alias.klimit", "alias.smg_ms": "alias.smg", "depgraph.ms": "depgraph",
		"xform.licm_ms": "xform.licm", "xform.unroll_ms": "xform.unroll", "xform.pipeline_ms": "xform.pipeline",
		"machine.scalar_ms": "machine.scalar", "machine.vliw_ms": "machine.vliw", "interp.check_ms": "interp.check",
	} {
		o.values[metric] = ms(self[span]) / n
	}
	o.values["norm.nodes"] = float64(l.normNodes) / n
	o.values["ir.instrs"] = float64(l.irInstrs) / n
	e := l.engine
	o.values["pathmatrix.summaries_computed"] = float64(e.summaryComputed) / n
	o.values["pathmatrix.summaries_reuse_frac"] = frac(e.summaryReused, e.summaryComputed)
	o.values["pathmatrix.iterations"] = float64(e.iterations) / n
	o.values["pathmatrix.clones"] = float64(e.clones) / n
	o.values["pathmatrix.memo_hit_frac"] = frac(e.memoHits, e.memoMisses)
	o.values["pathmatrix.widenings"] = float64(e.widenings) / n
	if l.functions > 0 {
		o.values["pathmatrix.analyses_per_fn"] = float64(e.analyses) / float64(l.functions)
	}
	o.values["pathmatrix.interned_paths"] = float64(pathmatrix.InternerStats())
	o.values["depgraph.edges"] = float64(l.depEdges) / n
	o.values["depgraph.carried_mem_deps"] = float64(l.carriedMem) / n
	if l.pipeTried > 0 {
		o.values["xform.pipeline_ok_frac"] = float64(l.pipeOK) / float64(l.pipeTried)
	}
	o.values["machine.sim_cycles"] = float64(l.simCycles) / n
	o.values["interp.reference_ms"] = ms(l.referenceTime) / n
	if busy > 0 {
		o.values["trace.overhead_frac"] = float64(tr.count()) * float64(spanCost()) / float64(busy)
	}
}
