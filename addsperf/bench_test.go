package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/alias"
	"repro/internal/exper"
	"repro/internal/gen"
	"repro/internal/ir"
	"repro/internal/norm"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs: the paper corpus and BENCHMARK.json are read from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p, want float64
	}{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.90, 50}, {1, 50},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted input
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestPlantedWrongHeapIsCounted(t *testing.T) {
	items, err := paperItemsFrom([]paperSource{{"exper.ShiftSrc", []byte(exper.ShiftSrc)}})
	if err != nil {
		t.Fatal(err)
	}
	it := items[0]
	r := newPaperRun(newTracer(false), 7)
	if err := r.item(context.Background(), it, 0); err != nil {
		t.Fatal(err)
	}
	if len(r.fails) != 0 {
		t.Fatalf("correct shift variants reported as failing: %v", r.fails)
	}

	// Plant a wrong program: the loop subtracts into an add.
	f := it.info.Funcs["shift"]
	prog := ir.Build(f, it.info.Env)
	bad := &ir.Program{Name: prog.Name, Params: prog.Params, Loops: prog.Loops}
	for _, in := range prog.Instrs {
		c := *in
		if c.Op == ir.Sub {
			c.Op = ir.Add
		}
		bad.Instrs = append(bad.Instrs, &c)
	}
	r.simulate(it, f, it.info, variant{name: "planted", scalar: bad}, 0, 100)
	if len(r.fails) != 1 || !strings.Contains(r.fails[0].msg, "final heap differs") {
		t.Fatalf("planted wrong heap not reported: %v", r.fails)
	}

	o := newOutcome()
	o.attempted = 1
	o.fail(knownDefect(it.key(), r.fails[0].variant), "shift", r.fails[0].msg)
	if got := o.result(false); got.Failed != 1 || got.Correct {
		t.Fatalf("planted wrong heap: failed %d correct %v, want 1 and false", got.Failed, got.Correct)
	}
}

// neverAlias is an unsound oracle: it rules every alias out.
type neverAlias struct{ alias.Oracle }

func (neverAlias) Name() string                             { return "never" }
func (neverAlias) MayAlias(*norm.Node, string, string) bool { return false }

func TestPlantedUnsoundVerdictIsCounted(t *testing.T) {
	ctx := context.Background()
	c := &compiler{tr: newTracer(false), ls: &layerStats{}}
	req := genItem(3, 0) // list profile, gpm: b = a etc. alias at once
	an, got, err := c.serve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if failures := genReference(ctx, req, got, an); len(failures) > 0 {
		t.Fatalf("sound item reported as failing: %v", failures)
	}
	an.oracles["fuzzed"] = []alias.Oracle{neverAlias{an.oracles["fuzzed"][0]}}
	failures := genReference(ctx, req, got, an)
	if len(failures) == 0 || !strings.Contains(failures[0], "oracle never rules out the observed alias") {
		t.Fatalf("planted unsound verdict not reported: %q", failures)
	}
	for _, profile := range []string{"list", "skiplist"} {
		if knownGenDefect(profile, genProgram(3, 0), failures) {
			t.Errorf("a planted unsound verdict on a %s program passed as the known defect", profile)
		}
	}
}

// TestPlantedGPMMissIsNotTheKnownDefect plants a gpm soundness miss on a
// skip-list program gpm analyzes soundly: it has not the defect's shape,
// so it must not pass as the known defect.
func TestPlantedGPMMissIsNotTheKnownDefect(t *testing.T) {
	skiplist := -1
	for k, pr := range gen.Profiles() {
		if pr.Name == "skiplist" {
			skiplist = k
		}
	}
	p := genProgram(3, skiplist)
	if m := gpmMisses(p); len(m) > 0 {
		t.Fatalf("gpm already misses aliases on the planted program: %v", m)
	}
	planted := []string{gpmMissPrefix + " a==b before 30:5 (main(3))"}
	if knownGenDefect("skiplist", p, planted) {
		t.Error("a planted gpm miss passed as the known defect")
	}
}

// TestKnownGenDefectIsReported pins the open gpm soundness defect the gen
// workload found, in both items known to show it: it is reported, and
// classified as the known defect. A change that fixes gpm deletes this
// test with knownGenDefect.
func TestKnownGenDefectIsReported(t *testing.T) {
	ctx := context.Background()
	c := &compiler{tr: newTracer(false), ls: &layerStats{}}
	for _, item := range []struct {
		seed int64
		i    int
	}{{410, 393}, {239, 558}} {
		req := genItem(item.seed, item.i)
		an, got, err := c.serve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		failures := genReference(ctx, req, got, an)
		if len(failures) == 0 || !knownGenDefect("skiplist", genProgram(item.seed, item.i), failures) {
			t.Errorf("gen seed %d item %d: failures %q, want the known gpm soundness miss", item.seed, item.i, failures)
		}
	}
}

func TestComposedPipelineMatchesBuildAnalyze(t *testing.T) {
	ctx := context.Background()
	c := &compiler{tr: newTracer(true), ls: &layerStats{}}
	for i := 0; i < 11; i++ { // every profile, every oracle
		req := genItem(11, i)
		an, got, err := c.serve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if failures := genReference(ctx, req, got, an); len(failures) > 0 {
			t.Errorf("item %d (%s): %v", i, req.Oracle, failures)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := 0; i < 22; i++ {
		a, b := genItem(5, i), genItem(5, i)
		if a.Source != b.Source || a.Oracle != b.Oracle {
			t.Fatalf("gen item %d differs between two draws of one seed", i)
		}
		if genItem(6, i).Source == a.Source {
			t.Fatalf("gen item %d is the same under seeds 5 and 6", i)
		}
	}

	pool := make([][]byte, hitPool)
	for i := 0; i < 40; i++ {
		if a, b := planJob(5, i, pool), planJob(5, i, pool); a.kind != b.kind || !bytes.Equal(a.body, b.body) {
			t.Fatalf("service request %d differs between two plans of one seed", i)
		}
	}

	items, err := paperItems()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if !it.runnable {
			continue
		}
		fi := it.info.Funcs[it.fn]
		for _, size := range paperSizes {
			h1, _, ok1 := buildInput(fi, inputRNG(5, it.key(), size, 1), size)
			h2, _, ok2 := buildInput(fi, inputRNG(5, it.key(), size, 1), size)
			if ok1 != ok2 || (ok1 && !bytes.Equal(heapSig(h1), heapSig(h2))) {
				t.Fatalf("%s n=%d: input differs between two draws of one seed", it.key(), size)
			}
		}
	}
}

// TestKnownPaperDefectCountsOnce measures listops.mini:reverse, the open
// defect, on two draws: every differing run is listed, the function counts
// as one failed item, and the run stays correct because each differing run
// is one the defect names.
func TestKnownPaperDefectCountsOnce(t *testing.T) {
	items, err := paperItems()
	if err != nil {
		t.Fatal(err)
	}
	r := newPaperRun(newTracer(false), 3)
	for _, it := range items {
		if it.key() != "listops.mini:reverse" {
			continue
		}
		var rec fnRecord
		for draw := 0; draw < 2; draw++ {
			r.measure(context.Background(), &rec, it, draw)
		}
		if len(rec.fails) < 2 {
			t.Fatalf("reverse: %d differing runs over two draws, want the defect's runs on both", len(rec.fails))
		}
		o := newOutcome()
		rec.account(o, it.key())
		if res := o.result(false); res.Attempted != 1 || res.Failed != 1 || !res.Correct {
			t.Fatalf("reverse: attempted %d failed %d correct %v, want 1, 1, true; failures %v",
				res.Attempted, res.Failed, res.Correct, o.failures)
		}
		return
	}
	t.Fatal("listops.mini:reverse not in the paper corpus")
}

// TestServicePlanKeepsTheMix checks that every block of the service plan
// holds exactly the mix's weights, under two seeds that order them
// differently, and that the j-th miss of either plan is program j of the
// miss sequence.
func TestServicePlanKeepsTheMix(t *testing.T) {
	const block = weightHit + weightMiss + weightDivergent
	pool := make([][]byte, hitPool)
	order := map[int64]string{}
	for _, seed := range []int64{5, 6} {
		misses := 0
		for b := 0; b < 20; b++ {
			n := map[string]int{}
			for i := b * block; i < (b+1)*block; i++ {
				job := planJob(seed, i, pool)
				n[job.kind]++
				order[seed] += job.kind[:1]
				if job.kind == "miss" {
					if want := analyzeBody(gen.Generate(missSeed(misses), mixedProfile()).Source()); !bytes.Equal(job.body, want) {
						t.Fatalf("seed %d request %d is not miss program %d", seed, i, misses)
					}
					misses++
				}
			}
			if n["hit"] != weightHit || n["miss"] != weightMiss || n["divergent"] != weightDivergent {
				t.Fatalf("seed %d block %d holds %v", seed, b, n)
			}
		}
	}
	if order[5] == order[6] {
		t.Fatal("seeds 5 and 6 order the plan the same way")
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric table must match.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricsDeclared(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, table []metricDef, declared []struct{ Name, Unit, Better string }) {
		if len(table) != len(declared) {
			t.Errorf("%s: %d metrics printed, %d declared", kind, len(table), len(declared))
			return
		}
		for i, d := range table {
			if !name.MatchString(d.name) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", kind, d.name)
			}
			if dd := declared[i]; dd.Name != d.name || dd.Unit != d.unit || dd.Better != d.better {
				t.Errorf("%s: printed %v, declared %v", kind, d, dd)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)

	o := newOutcome()
	o.attempted = 1
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		got := o.result(traced).Metrics
		if len(got) != len(want) {
			t.Errorf("traced=%v: result has %d metrics, want %d", traced, len(got), len(want))
		}
		for _, d := range want {
			if m, ok := got[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q", traced, d.name, m.Unit)
			}
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload for the shortest window
// (one item, one pass, one round of requests) and checks what it reports.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 2, window: time.Millisecond, trace: traced, tr: newTracer(traced), workers: 2}
			o, err := run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if m := o.missingEndToEnd(); len(m) > 0 {
				t.Errorf("%s: end-to-end metrics not measured: %v", name, m)
			}
			res := o.result(traced)
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failures %v",
					name, traced, res.Correct, res.Attempted, o.failures)
			}
			for _, d := range endToEnd {
				if v := o.values[d.name]; !traced && v <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, d.name, v)
				}
			}
		}
	}
}
