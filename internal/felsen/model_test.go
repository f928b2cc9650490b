package felsen

// Model coverage of the closed-form pattern kernels. Every pattern kernel
// applies its edges through subst.Coeffs, one form serving F81, JC69 and
// F84, while the site kernels and the test oracles expand the same models
// into dense matrices. These tests run Rebase and bound wave rounds under
// all three models against those oracles, and pin wave ≡ per-candidate
// bit for bit under each of them.

import (
	"math"
	"testing"

	"mpcgs/internal/bitseq"
	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// kernelModels returns the three production models the pattern kernels
// serve: F81 and F84 (κ = 2) over freqs, and JC69.
func kernelModels(t *testing.T, freqs [4]float64) map[string]subst.Model {
	t.Helper()
	f81, err := subst.NewF81(freqs, true)
	if err != nil {
		t.Fatal(err)
	}
	f84, err := subst.NewF84(freqs, 2.0, true)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]subst.Model{"F81": f81, "F84": f84, "JC69": subst.NewJC69()}
}

// waveRound resimulates φ on n copies of tree at theta (the structure of
// one GMH round), evaluates the candidates through a bound wave over c, and fails
// unless every result carries the exact bits LogLikelihoodDelta returns.
// The cache must hold tree as its base.
func waveRound(t *testing.T, e *Evaluator, c *DeltaCache, tree *gtree.Tree, phi, n int, theta float64, src *rng.MT19937) ([]*gtree.Tree, []float64) {
	t.Helper()
	props := make([]*gtree.Tree, 0, n)
	for tries := 0; len(props) < n; tries++ {
		if tries == 100*n {
			t.Fatalf("resimulating node %d failed %d times", phi, tries)
		}
		p := tree.Clone()
		if resim.Resimulate(p, phi, theta, src) == nil {
			props = append(props, p)
		}
	}
	w := e.NewWave(c)
	w.BindRound(phi)
	got := make([]float64, n)
	w.Eval(props, got)
	for i, p := range props {
		if want := e.LogLikelihoodDelta(c, p); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s φ=%d candidate %d: wave %v != per-candidate %v (must be bit-identical)",
				e.Model().Name(), phi, i, got[i], want)
		}
	}
	return props, got
}

// TestPatternKernelsMatchRecursive checks Rebase and wave rounds against
// the recursive dense-matrix oracle at 6 and 30 taxa, with missing data.
func TestPatternKernelsMatchRecursive(t *testing.T) {
	src := rng.NewMT19937(111)
	for name, model := range kernelModels(t, [4]float64{0.1, 0.2, 0.3, 0.4}) {
		for _, n := range []int{6, 30} {
			names := make([]string, n)
			for i := range names {
				names[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			}
			tr, err := gtree.RandomCoalescent(names, 1.0, src)
			if err != nil {
				t.Fatal(err)
			}
			aln := randomAlignment(src, n, 40)
			for k := 0; k < 20; k++ {
				aln.Seqs[rng.Intn(src, n)].SetUnknown(rng.Intn(src, 40))
			}
			e := mustEval(t, model, aln, device.Serial())
			c := e.NewDeltaCache()
			if got, want := e.Rebase(c, tr), e.LogLikelihoodRecursive(tr); !closeRel(got, want) {
				t.Errorf("%s n=%d: Rebase %v != recursive %v", name, n, got, want)
			}
			for _, phi := range []int{resim.PickTarget(tr, src), rootAdjacentTarget(tr)} {
				props, got := waveRound(t, e, c, tr, phi, 4, 1.0, src)
				for i, p := range props {
					if want := e.LogLikelihoodRecursive(p); !closeRel(got[i], want) {
						t.Errorf("%s n=%d φ=%d candidate %d: wave %v != recursive %v", name, n, phi, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestPatternKernelsRescaleDeepTree forces the rescale branch in the
// pattern kernels. The per-site likelihood of n saturated tips is about
// Π π_tip ≈ 4^-n, so conditionals cross rescaleThreshold (1e-150) only
// above ~250 tips: 300 taxa at θ = 30 put the nodes near the root below
// it. Rebase must rescale (non-zero scale lanes) and match the recursive
// oracle. Wave rounds whose target, parent or root path rescales must
// stay bit-identical to the per-candidate path; they run one alignment
// column at a time, because a rescale taken by one kernel and skipped by
// the other moves a pattern's log-likelihood by roundoff only, which a
// sum over many patterns can absorb.
func TestPatternKernelsRescaleDeepTree(t *testing.T) {
	src := rng.NewMT19937(112)
	const n, nSites, theta = 300, 10, 30.0
	names := make([]string, n)
	for i := range names {
		names[i] = "x" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	tr, err := gtree.RandomCoalescent(names, theta, src)
	if err != nil {
		t.Fatal(err)
	}
	aln := randomAlignment(src, n, nSites)
	// φ whose parent is the root (the neighbourhood rescales) and φ one
	// level further down (the root path rescales).
	top := rootAdjacentTarget(tr)
	below := tr.Nodes[top].Child[0]
	if tr.IsTip(below) {
		below = tr.Nodes[top].Child[1]
	}
	for name, model := range kernelModels(t, [4]float64{0.1, 0.2, 0.3, 0.4}) {
		e := mustEval(t, model, aln, device.Serial())
		rec := e.LogLikelihoodRecursive(tr)
		c := e.NewDeltaCache()
		if got := e.Rebase(c, tr); !closeRel(got, rec) || math.IsInf(got, 0) {
			t.Fatalf("%s: Rebase %v != recursive %v", name, got, rec)
		}
		rescaled := 0
		for _, s := range c.scale {
			if s != 0 {
				rescaled++
			}
		}
		if rescaled == 0 {
			t.Fatalf("%s: no pattern lane was rescaled; the case does not reach rescaleThreshold", name)
		}
		selfRescaled := 0
		for site := 0; site < nSites; site++ {
			col := &phylip.Alignment{Names: aln.Names}
			for _, sq := range aln.Seqs {
				b := "-"
				if base, known := sq.At(site); known {
					b = base.String()
				}
				col.Seqs = append(col.Seqs, bitseq.FromString(b))
			}
			ec := mustEval(t, model, col, device.Serial())
			cc := ec.NewDeltaCache()
			ec.Rebase(cc, tr)
			targets := []int{top, below}
			// A node whose own row rescaled in this column (its scale is
			// not its children's sum) is a target whose row rescales.
			scaleOf := func(node int) float64 {
				if tr.IsTip(node) {
					return 0
				}
				return cc.scale[node-n]
			}
			for node := n; node < tr.NNodes(); node++ {
				nd := &tr.Nodes[node]
				if node != tr.Root && scaleOf(node) != scaleOf(nd.Child[0])+scaleOf(nd.Child[1]) {
					targets = append(targets, node)
					selfRescaled++
					break
				}
			}
			for _, phi := range targets {
				if tr.IsTip(phi) {
					continue
				}
				props, got := waveRound(t, ec, cc, tr, phi, 3, theta, src)
				for i, p := range props {
					if want := ec.LogLikelihoodRecursive(p); !closeRel(got[i], want) {
						t.Errorf("%s site %d φ=%d candidate %d: wave %v != recursive %v", name, site, phi, i, got[i], want)
					}
				}
			}
		}
		if selfRescaled == 0 {
			t.Fatalf("%s: no non-root node rescaled its own row in any column", name)
		}
	}
}

// TestWaveMatchesPerCandidateF84 pins wave ≡ LogLikelihoodDelta bit for
// bit under F84 (the group terms the F81 fixtures leave at zero), across
// block sizes and worker counts, on the wave fixture's data.
func TestWaveMatchesPerCandidateF84(t *testing.T) {
	aln, _, err := seqgen.SimulateData(12, 2000, 1.0, 424)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF84(aln.BaseFreqs(), 2.0, true)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := gtree.RandomCoalescent(aln.Names, 1.0, rng.NewMT19937(17))
	if err != nil {
		t.Fatal(err)
	}
	nPat := mustEval(t, model, aln, device.Serial()).NPatterns()
	for _, bs := range blockSizesFor(nPat) {
		for _, workers := range []int{1, 4} {
			e := mustEval(t, model, aln, device.New(workers))
			e.SetBlockSize(bs)
			c := e.NewDeltaCache()
			e.Rebase(c, tree)
			src := rng.NewMT19937(18)
			for _, phi := range []int{anyTarget(tree), rootAdjacentTarget(tree)} {
				waveRound(t, e, c, tree, phi, 4, 1.0, src)
			}
		}
	}
}

// tipTrioTarget returns a target whose two children and sibling are all
// tips, or gtree.Nil: resimulating it leaves every candidate's three
// clean neighbourhood operands (the target's children and the parent's
// clean child) tips, whichever pairing the draw picks.
func tipTrioTarget(tree *gtree.Tree) int {
	for _, phi := range resim.Targets(tree) {
		ch := tree.Nodes[phi].Child
		if tree.IsTip(ch[0]) && tree.IsTip(ch[1]) && tree.IsTip(tree.Sibling(phi)) {
			return phi
		}
	}
	return gtree.Nil
}

// TestWaveTipTablesMissingData covers the tip tables where they are
// used: a round whose three clean operands are all tips carrying missing
// data (code 4), alone and in every combination, under F81 and F84
// (κ = 2) at 1 and 4 workers. The wave must match the per-candidate path
// bit for bit, and — since both gather tip edge products from the same
// tables — each candidate must also match the recursive dense-matrix
// oracle, which never tabulates.
func TestWaveTipTablesMissingData(t *testing.T) {
	aln, _, err := seqgen.SimulateData(12, 300, 1.0, 425)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewMT19937(19)
	var tree *gtree.Tree
	phi := gtree.Nil
	for phi == gtree.Nil {
		if tree, err = gtree.RandomCoalescent(aln.Names, 1.0, src); err != nil {
			t.Fatal(err)
		}
		phi = tipTrioTarget(tree)
	}
	ch := tree.Nodes[phi].Child
	trio := [3]int{ch[0], ch[1], tree.Sibling(phi)}
	for s := 0; s < aln.SeqLen(); s++ {
		for k, every := range [3]int{3, 4, 5} {
			if s%every == 0 {
				aln.Seqs[trio[k]].SetUnknown(s)
			}
		}
	}
	models := kernelModels(t, aln.BaseFreqs())
	for _, name := range []string{"F81", "F84"} {
		model := models[name]
		nPat := mustEval(t, model, aln, device.Serial()).NPatterns()
		for _, bs := range blockSizesFor(nPat) {
			for _, workers := range []int{1, 4} {
				e := mustEval(t, model, aln, device.New(workers))
				e.SetBlockSize(bs)
				c := e.NewDeltaCache()
				if got, want := e.Rebase(c, tree), e.LogLikelihoodRecursive(tree); !closeRel(got, want) {
					t.Fatalf("%s bs=%d workers=%d: Rebase %v != recursive %v", name, bs, workers, got, want)
				}
				props, got := waveRound(t, e, c, tree, phi, 6, 1.0, rng.NewMT19937(20))
				for i, p := range props {
					if want := e.LogLikelihoodRecursive(p); !closeRel(got[i], want) {
						t.Fatalf("%s bs=%d workers=%d candidate %d: wave %v != recursive %v", name, bs, workers, i, got[i], want)
					}
				}
			}
		}
	}
}
