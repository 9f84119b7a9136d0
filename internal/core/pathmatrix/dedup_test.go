package pathmatrix

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// loadMini parses and checks one testdata program.
func loadMini(t *testing.T, file string) *types.Info {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, errs := types.Check(prog)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	return info
}

func miniFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	return files
}

// TestMemoDeterminism: serial/parallel × memo-on/memo-off must all produce
// byte-identical matrix renderings — the memo is a pure cache. Each memo-on
// configuration runs twice, once against a cold memo and once warm, so both
// the miss and the hit path are pinned against the unmemoized engine.
func TestMemoDeterminism(t *testing.T) {
	defer func(prev bool) { Memoize = prev }(Memoize)
	for _, file := range miniFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			info := loadMini(t, file)

			Memoize = false
			baseline, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := dumpProgram(t, baseline)

			Memoize = true
			memoReset()
			for _, cfg := range []struct {
				name    string
				workers int
			}{
				{"serial-cold", 1}, {"serial-warm", 1},
				{"parallel-warm", 8},
			} {
				got, err := AnalyzeProgramCtx(context.Background(), info, info.Env, cfg.workers)
				if err != nil {
					t.Fatal(err)
				}
				if d := dumpProgram(t, got); d != want {
					t.Errorf("%s: memoized dump differs from unmemoized baseline", cfg.name)
				}
			}
		})
	}
}

// TestMemoHitsOnRepeat: re-analyzing the same program must be served almost
// entirely from the memo — the cache is content-keyed and process-wide, not
// per-run.
func TestMemoHitsOnRepeat(t *testing.T) {
	defer func(prev bool) { Memoize = prev }(Memoize)
	Memoize = true
	memoReset()
	info := loadMini(t, miniFiles(t)[0])

	if _, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1); err != nil {
		t.Fatal(err)
	}
	h0, m0 := engineStats.memoHits.Load(), engineStats.memoMisses.Load()
	if _, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1); err != nil {
		t.Fatal(err)
	}
	hits := engineStats.memoHits.Load() - h0
	misses := engineStats.memoMisses.Load() - m0
	if hits == 0 {
		t.Fatalf("second run over identical input had no memo hits (misses=%d)", misses)
	}
	if misses != 0 {
		t.Errorf("second run recomputed %d transfers; all keys should be cached (hits=%d)", misses, hits)
	}
}

// TestMemoCapBounded: the LRU must never hold more than memoCap entries
// (plus shard rounding slack).
func TestMemoCapBounded(t *testing.T) {
	defer func(prevM bool, prevC int) { Memoize, memoCap = prevM, prevC; memoReset() }(Memoize, memoCap)
	Memoize = true
	memoCap = 32
	memoReset()
	for _, file := range miniFiles(t) {
		info := loadMini(t, file)
		if _, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := memoLen(); n > memoCap {
		t.Fatalf("memo holds %d entries, cap is %d", n, memoCap)
	}
}

// TestFingerprintInvalidation: every mutator must clear the cached hash, and
// Clone must carry it.
func TestFingerprintInvalidation(t *testing.T) {
	m := NewMatrix([]string{"p", "q", "r"})
	m.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
	fp1 := m.fingerprint(nil)
	if fp1 == "" || m.fp != fp1 {
		t.Fatal("fingerprint not cached")
	}

	c := m.Clone()
	if c.fp != fp1 {
		t.Error("Clone dropped the fingerprint")
	}
	if c.fingerprint(nil) != fp1 {
		t.Error("clone fingerprint differs from donor")
	}

	steps := []struct {
		name string
		mut  func(*Matrix)
	}{
		{"addRel", func(m *Matrix) { m.addRel("p", "r", Rel{Kind: RelTop}) }},
		{"kill", func(m *Matrix) { m.kill("q") }},
		{"addViolation", func(m *Matrix) { m.addViolation(Violation{Prop: "unique", Field: "next", Base: "p"}) }},
		{"deleteViolation", func(m *Matrix) { m.deleteViolation(Violation{Prop: "unique", Field: "next", Base: "p"}) }},
	}
	for _, s := range steps {
		x := m.Clone()
		x.fingerprint(nil)
		s.mut(x)
		if x.fp != "" {
			t.Errorf("%s left a stale fingerprint", s.name)
		}
	}

	// Distinct content must hash distinctly; recomputed equal content must
	// hash equally.
	n := NewMatrix([]string{"p", "q", "r"})
	n.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
	if n.fingerprint(nil) != fp1 {
		t.Error("equal content, different fingerprint")
	}
	n.addRel("p", "q", Rel{Kind: RelTop})
	if n.fingerprint(nil) == fp1 {
		t.Error("different content, same fingerprint")
	}

	// Certainty is content: "=" vs "=?" must hash differently.
	u := NewMatrix([]string{"p", "q"})
	u.addRel("p", "q", Rel{Kind: RelAlias})
	v := NewMatrix([]string{"p", "q"})
	v.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
	if u.fingerprint(nil) == v.fingerprint(nil) {
		t.Error("certainty not part of the fingerprint")
	}
}

// TestJoinSharesEntries: joining a matrix with an equal-content sibling must
// share the unchanged entries pointer-equal while staying contentwise
// identical to the slow joinEntries path, and a later write to a shared cell
// must COW rather than corrupt the donor.
func TestJoinSharesEntries(t *testing.T) {
	mk := func() *Matrix {
		m := NewMatrix([]string{"p", "q", "r"})
		m.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
		m.addRel("p", "r", Rel{Kind: RelPath, Certain: true, Path: Intern(Path{{Field: "next", Min: 1}})})
		return m
	}
	a, b := mk(), mk()
	shared0 := engineStats.sharedRows.Load()
	out := Join(a, b)
	if got := engineStats.sharedRows.Load() - shared0; got == 0 {
		t.Fatal("join of identical matrices shared no entries")
	}
	for _, k := range [][2]string{{"p", "q"}, {"q", "p"}, {"p", "r"}} {
		ea, eo := a.Entry(k[0], k[1]), out.Entry(k[0], k[1])
		if len(ea) == 0 {
			continue
		}
		if reflect.ValueOf(eo).Pointer() != reflect.ValueOf(ea).Pointer() {
			t.Fatalf("entry %v not shared pointer-equal", k)
		}
		if !equalEntries(joinEntries(ea, b.Entry(k[0], k[1])), eo) {
			t.Fatalf("shared entry %v differs from joinEntries result", k)
		}
	}

	// Mutating the join result must not touch the donors.
	before := a.Entry("p", "q").String()
	out.addRel("p", "q", Rel{Kind: RelTop})
	if a.Entry("p", "q").String() != before || b.Entry("p", "q").String() != before {
		t.Fatal("mutation of shared entry leaked into donor matrix")
	}

	// Non-sig-canonical entries (same signature, different counts) must NOT
	// be shared: joining them folds the relations.
	c := NewMatrix([]string{"p", "q"})
	c.addRel("p", "q", Rel{Kind: RelPath, Certain: true, Path: Intern(Path{{Field: "next", Min: 1}})})
	c.addRel("p", "q", Rel{Kind: RelPath, Certain: true, Path: Intern(Path{{Field: "next", Min: 2}})})
	d := c.Clone()
	j := Join(c, d)
	if want := joinEntries(c.Entry("p", "q"), d.Entry("p", "q")); !equalEntries(j.Entry("p", "q"), want) {
		t.Fatalf("non-canonical entry shared: got %s want %s", j.Entry("p", "q"), want)
	}
}

// TestLivenessDropsDeadRows: with the liveness pass enabled, analyses over
// the testdata programs must drop at least one dead row, and every
// MayAlias/MustAlias/Valid answer about pairs that are LIVE at the query
// point must be unchanged from the full analysis.
func TestLivenessDropsDeadRows(t *testing.T) {
	defer func(prev bool) { Liveness = prev }(Liveness)
	var totalDropped uint64
	for _, file := range miniFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			info := loadMini(t, file)
			for name, fi := range info.Funcs {
				g := norm.Build(fi, info.Env)

				Liveness = false
				full := Analyze(g, info.Env)
				Liveness = true
				d0 := engineStats.droppedRows.Load()
				lite := Analyze(g, info.Env)
				totalDropped += engineStats.droppedRows.Load() - d0

				if lite.Live == nil {
					t.Fatalf("%s: liveness-enabled result has no Live info", name)
				}
				vars := g.PointerVars()
				for _, n := range g.Nodes {
					fm, lm := full.BeforeNode(n), lite.BeforeNode(n)
					if fm.Valid() != lm.Valid() {
						// Dropping can only add conservatism: a lost repair
						// or re-anchored violation keeps Valid false longer.
						if !fm.Valid() && lm.Valid() {
							t.Errorf("%s node %d: liveness run reports valid where full run does not", name, n.ID)
						}
						continue
					}
					for _, p := range vars {
						if !lite.Live.LiveIn(n.ID, p) {
							continue
						}
						for _, q := range vars {
							if !lite.Live.LiveIn(n.ID, q) {
								continue
							}
							if fm.MayAlias(p, q) != lm.MayAlias(p, q) {
								t.Errorf("%s node %d: MayAlias(%s,%s) changed for live pair", name, n.ID, p, q)
							}
							if !fm.MustAlias(p, q) && lm.MustAlias(p, q) {
								t.Errorf("%s node %d: MustAlias(%s,%s) strengthened under liveness", name, n.ID, p, q)
							}
						}
					}
				}
			}
		})
	}
	if totalDropped == 0 {
		t.Fatal("liveness pass dropped no rows across all testdata programs")
	}
}
