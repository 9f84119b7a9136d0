package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/alias"
	"repro/internal/core/pathmatrix"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/service"
	"repro/internal/source/ast"
	"repro/internal/source/token"
	"repro/internal/source/types"
)

// genItem is the request for item i of the gen stream: a unique program
// from the generator, rotating through every profile, with the oracle
// field rotating through every registered oracle. 11 profiles and 5
// oracles are coprime, so every pairing recurs every 55 items.
//
// Every program has genStmts top-level statements, below the profiles'
// own range of 6 to 16. At the profiles' bounds one repair program takes
// from 0.08 s to 11 s to analyze, so a run would see a handful and its
// throughput would depend on which; at 4 a run sees about a hundred.
func genItem(seed int64, i int) *wire.AnalyzeRequest {
	oracles := adds.OracleNames()
	return &wire.AnalyzeRequest{
		Source:  string(genProgram(seed, i).Source()),
		Oracle:  oracles[i%len(oracles)],
		Workers: 1,
	}
}

// genProgram is the program of item i.
func genProgram(seed int64, i int) *gen.Program {
	profiles := gen.Profiles()
	pr := profiles[i%len(profiles)]
	pr.MinStmts, pr.MaxStmts = genStmts, genStmts
	return gen.Generate(seed*1_000_003+int64(i), pr)
}

// genStmts is the top-level statement count of every generated program.
const genStmts = 4

// genItemsPerSecond sizes a run: a run of S seconds analyzes the first
// S x genItemsPerSecond items of its seed's stream, about S seconds of work
// on two vCPUs of a shared x86-64 host. The item set depends only on the
// seed and the length, so two runs of one seed analyze the same programs
// and count the same failures.
const genItemsPerSecond = 80

// genItems is how many items a run of the given window analyzes.
func genItems(window time.Duration) int {
	return max(1, int(window.Seconds()*genItemsPerSecond))
}

// soundRuns are the interpreter runs of the soundness reference, main(n)
// for each n, under the generated programs' usual step budget.
var soundRuns = []int64{2, 3, 5}

const soundMaxSteps = 1 << 16

func runGen(cfg config) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()

	setup := processCPU()
	planned := make([]*wire.AnalyzeRequest, genItems(cfg.window))
	for i := range planned {
		planned[i] = genItem(cfg.seed, i)
	}
	o.values["setup_s"] = (processCPU() - setup).Seconds()
	if cfg.setupOnly {
		return o, nil
	}

	// The items run alone; their outputs are checked after the last one,
	// so the checks' garbage is not collected inside timed items.
	ls := &layerStats{}
	c := &compiler{tr: cfg.tr, ls: ls}
	var lat []float64
	var outs [][]byte
	var busy time.Duration
	for i, req := range planned {
		o.attempted++

		before := pathmatrix.ReadStats()
		t0 := processCPU()
		_, got, err := c.serve(ctx, req)
		d := processCPU() - t0
		ls.item(fmt.Sprint(i), before, pathmatrix.ReadStats())
		lat = append(lat, ms(d))
		busy += d
		outs = append(outs, got)
		if err != nil {
			o.fail(false, fmt.Sprintf("gen item %d (oracle %s): %v", i, req.Oracle, err))
		}
	}

	// Memory is read before the checks add their own.
	o.values["process.peak_rss_mb"] = procStatusMB("VmHWM")
	r0 := time.Now()
	failures := genReferences(ctx, cfg, planned, outs)
	ls.referenceTime = time.Since(r0)
	for i, f := range failures {
		if len(f) > 0 {
			req := planned[i]
			profile := gen.Profiles()[i%len(gen.Profiles())].Name
			o.fail(knownGenDefect(profile, genProgram(cfg.seed, i), f),
				fmt.Sprintf("gen seed %d item %d (%s, oracle %s): %d references disagree", cfg.seed, i, profile, req.Oracle, len(f)),
				f...)
		}
	}

	// Items per second of analysis work, and percentiles over every item.
	// The stream holds the 11 profiles in equal numbers, so the repair
	// programs, about half of the work, weigh in every figure but the
	// median.
	o.values["throughput_per_s"] = float64(len(lat)) / busy.Seconds()
	o.values["latency_p50_ms"] = percentile(lat, 0.50)
	o.values["latency_p90_ms"] = percentile(lat, 0.90)
	if cfg.trace {
		ls.report(o, cfg.tr, len(lat), busy)
	}
	return o, nil
}

// genReferences checks the outputs of the measured items, spread over
// cfg.workers goroutines, and returns each item's disagreements. Each
// check analyzes the request again, for the interpreter to compare with;
// the analysis is deterministic, so it gives the verdicts the measured item
// gave. Items that failed to compile have no output and were counted.
func genReferences(ctx context.Context, cfg config, planned []*wire.AnalyzeRequest, outs [][]byte) [][]string {
	failures := make([][]string, len(outs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &compiler{tr: newTracer(false), ls: &layerStats{}}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(outs) {
					return
				}
				if outs[i] == nil {
					continue
				}
				req := planned[i]
				an, again, err := c.serve(ctx, req)
				switch {
				case err != nil:
					failures[i] = []string{fmt.Sprintf("analyzing again failed: %v", err)}
				case !bytes.Equal(again, outs[i]):
					failures[i] = []string{"analyzing again gave a different response"}
				default:
					failures[i] = genReference(ctx, req, outs[i], an)
				}
			}
		}()
	}
	wg.Wait()
	return failures
}

// genReference checks one gen item against its references: the product's
// own BuildAnalyze must encode to the same bytes, and every alias the
// interpreter observes inside fuzzed must be admitted by gpm and by the
// request's oracle. It returns one line per disagreement, none when both
// hold.
func genReference(ctx context.Context, req *wire.AnalyzeRequest, got []byte, an *analyzed) []string {
	ref, err := service.BuildAnalyze(ctx, req)
	if err != nil {
		return []string{fmt.Sprintf("BuildAnalyze failed where the composed pipeline succeeded: %v", err)}
	}
	want, err := json.Marshal(ref)
	if err != nil {
		return []string{fmt.Sprintf("encoding BuildAnalyze response: %v", err)}
	}
	if !bytes.Equal(got, want) {
		return []string{fmt.Sprintf("composed response differs from BuildAnalyze (%d vs %d bytes)", len(got), len(want))}
	}
	f := an.fns["fuzzed"]
	if f == nil {
		return []string{"generated program has no fuzzed function"}
	}
	oracles := an.oracles["fuzzed"]
	if len(oracles) < 2 && oracles[0].Name() != "adds+gpm" {
		oracles = append(oracles, alias.NewGPMWith(f.g, an.info.Env, f.res.Summaries))
	}
	return soundnessMisses(an.info.Prog, f.info, f.g, oracles)
}

// knownGenDefect reports whether a gen item's failures are the open gpm
// soundness defect the benchmark counts on purpose. On skip-list programs
// (the skiplist profile's SkipL: next0 uniquely forward along L0, next1
// forward along L1), after
//
//	b = a; a = a->next1; b->next1 = NULL;
//
// gpm drops every relation between a and b, although b still reaches a
// along next0, and then rules out a == b after a walk of b along next0.
// Item 393 of seed 410 shrinks to that shape; the repository's own
// differential checker (difftest, soundness) reports the same program.
//
// The item counts as this defect only when every failure is a gpm miss on
// a skiplist program and the program, shrunk by difftest's delta debugger
// while gpm still misses an observed alias, keeps the defect's shape: a
// variable in a missed pair is loaded from a next1 field before a NULL is
// stored to a next1 field.
func knownGenDefect(profile string, p *gen.Program, failures []string) bool {
	if profile != "skiplist" {
		return false
	}
	for _, f := range failures {
		if !strings.HasPrefix(f, gpmMissPrefix) {
			return false
		}
	}
	min := difftest.Shrink(p, func(q *gen.Program) bool { return len(gpmMisses(q)) > 0 }, 0)
	body := string(min.Source())
	body = body[strings.Index(body, "void fuzzed("):]
	cut := strings.LastIndex(body, "->next1 = NULL;")
	if cut < 0 {
		return false
	}
	for _, m := range gpmMisses(min) {
		for _, v := range missedPair.FindStringSubmatch(m)[1:] {
			load := regexp.MustCompile(`\b` + v + ` = \w+->next1;`).FindStringIndex(body)
			if load != nil && load[0] < cut {
				return true
			}
		}
	}
	return false
}

const gpmMissPrefix = "oracle adds+gpm rules out the observed alias"

var missedPair = regexp.MustCompile(`observed alias (\w+)==(\w+) before`)

// gpmMisses compiles a generated program as a gpm request and returns the
// observed aliases gpm rules out in fuzzed.
func gpmMisses(p *gen.Program) []string {
	c := &compiler{tr: newTracer(false), ls: &layerStats{}}
	an, err := c.analyzeRequest(context.Background(), &wire.AnalyzeRequest{Source: string(p.Source()), Oracle: "gpm", Workers: 1})
	if err != nil || an.fns["fuzzed"] == nil {
		return nil
	}
	f := an.fns["fuzzed"]
	return soundnessMisses(an.info.Prog, f.info, f.g, an.oracles["fuzzed"][:1])
}

// aliasTrace records, per statement position, the pointer-variable pairs
// that held the same node when the statement was reached.
type aliasTrace struct {
	ptrVars  []string
	observed map[token.Pos]map[[2]string]bool
}

func (t *aliasTrace) AtStmt(s ast.Stmt, vars map[string]interp.Value) {
	for i, p := range t.ptrVars {
		vp := vars[p]
		if !vp.IsPtr || vp.Ptr == nil {
			continue
		}
		for _, q := range t.ptrVars[i+1:] {
			if vq := vars[q]; vq.IsPtr && vq.Ptr == vp.Ptr {
				pos := s.Pos()
				if t.observed[pos] == nil {
					t.observed[pos] = map[[2]string]bool{}
				}
				t.observed[pos][[2]string{p, q}] = true
			}
		}
	}
}

// soundnessMisses runs main(n) on the interpreter for each soundness run
// and returns, sorted, every observed alias inside the function that one of
// the oracles rules out. Interpreter errors that random mutation causes
// (a step budget on a cycle, a NULL behind a stale guard) end a run
// without a finding.
func soundnessMisses(prog *ast.Program, fi *types.FuncInfo, g *norm.Graph, oracles []alias.Oracle) []string {
	nodeAt := map[token.Pos]*norm.Node{}
	for _, n := range g.Nodes {
		if n.Kind == norm.NodeStmt {
			if _, seen := nodeAt[n.Stmt.Pos]; !seen {
				nodeAt[n.Stmt.Pos] = n
			}
		}
	}
	var misses []string
	for _, n := range soundRuns {
		in := interp.New(prog)
		in.MaxSteps = soundMaxSteps
		tr := &aliasTrace{ptrVars: fi.PointerVars(), observed: map[token.Pos]map[[2]string]bool{}}
		in.Tracer = tr
		if _, err := in.Call("main", interp.IntVal(n)); err != nil &&
			!strings.Contains(err.Error(), "step budget") && !strings.Contains(err.Error(), "NULL") {
			return []string{fmt.Sprintf("interpreter: main(%d) failed: %v", n, err)}
		}
		for pos, pairs := range tr.observed {
			node := nodeAt[pos]
			if node == nil {
				continue
			}
			for pair := range pairs {
				for _, o := range oracles {
					if !o.MayAlias(node, pair[0], pair[1]) {
						misses = append(misses, fmt.Sprintf(
							"oracle %s rules out the observed alias %s==%s before %s (main(%d))",
							o.Name(), pair[0], pair[1], pos, n))
					}
				}
			}
		}
	}
	sort.Strings(misses)
	return misses
}
