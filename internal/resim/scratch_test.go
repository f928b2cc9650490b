package resim

import (
	"fmt"
	"sync"
	"testing"

	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
)

// TestResimulateScratchMatchesPooled verifies that a caller-owned Scratch
// reused across many draws produces bit-identical proposals to the pooled
// path for the same seed, including on the root-adjacent region case.
func TestResimulateScratchMatchesPooled(t *testing.T) {
	base := ladderTree(t)
	s := NewScratch()
	for _, target := range []int{4, 5} {
		srcA, srcB := rng.NewMT19937(910), rng.NewMT19937(910)
		a, b := base.Clone(), base.Clone()
		for trial := 0; trial < 300; trial++ {
			ta := PickTarget(a, srcA)
			tb := PickTarget(b, srcB)
			if ta != tb {
				t.Fatalf("target %d trial %d: picked targets diverged", target, trial)
			}
			if err := Resimulate(a, ta, 1.0, srcA); err != nil {
				t.Fatal(err)
			}
			if err := ResimulateScratch(b, tb, 1.0, srcB, s); err != nil {
				t.Fatal(err)
			}
			for i := range a.Nodes {
				if a.Nodes[i] != b.Nodes[i] {
					t.Fatalf("target %d trial %d: node %d differs between pooled and scratch paths", target, trial, i)
				}
			}
		}
	}
}

// TestResimulateScratchNil: a nil scratch must behave like the pooled path
// (fresh buffers), not crash.
func TestResimulateScratchNil(t *testing.T) {
	tr := ladderTree(t)
	if err := ResimulateScratch(tr, 4, 1.0, rng.NewMT19937(911), nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// randomTree builds a random coalescent genealogy of nTips tips.
func randomTree(tb testing.TB, nTips int, seed uint32) *gtree.Tree {
	tb.Helper()
	names := make([]string, nTips)
	for i := range names {
		names[i] = "t" + string(rune('A'+i%26)) + string(rune('a'+i/26))
	}
	tr, err := gtree.RandomCoalescent(names, 1.0, rng.NewMT19937(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// regionTargets returns one bounded target (its parent is not the root)
// and one root-adjacent target (its parent is the root) of tr.
func regionTargets(tb testing.TB, tr *gtree.Tree) (bounded, rootAdjacent int) {
	tb.Helper()
	bounded, rootAdjacent = -1, -1
	for _, i := range Targets(tr) {
		if tr.Nodes[i].Parent == tr.Root {
			rootAdjacent = i
		} else if bounded < 0 {
			bounded = i
		}
	}
	if bounded < 0 || rootAdjacent < 0 {
		tb.Fatal("tree lacks a bounded or a root-adjacent target")
	}
	return bounded, rootAdjacent
}

// errText renders an error for comparison; nil renders as "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSharedRegionMatchesPerCandidate pins the multiple-proposal round's
// decomposition: one Analyze of (tree, target, θ) followed by N
// concurrent Draws on copies of the tree, each with its own stream, must
// yield node for node the trees and the errors of N independent
// ResimulateScratch calls, and leave every stream in the same state. It
// covers bounded and root-adjacent regions at 12 and 32 taxa, a θ small
// enough that draws fail, and an invalid θ that fails Analyze (and so
// must consume no randomness).
func TestSharedRegionMatchesPerCandidate(t *testing.T) {
	const n = 8
	var drawFailures, analyzeFailures int
	for _, nTips := range []int{12, 32} {
		base := randomTree(t, nTips, uint32(920+nTips))
		bounded, rootAdj := regionTargets(t, base)
		for _, target := range []int{bounded, rootAdj} {
			for _, theta := range []float64{1, 1e-9, 0} {
				seed := uint64(nTips)*1000 + uint64(target)
				sharedStreams, perStreams := rng.NewStreamSet(n, seed), rng.NewStreamSet(n, seed)
				s := NewScratch()
				aerr := s.Analyze(base, target, theta)
				if aerr != nil {
					analyzeFailures++
				}
				shared := make([]*gtree.Tree, n)
				sharedErrs := make([]error, n)
				var wg sync.WaitGroup
				for i := range shared {
					shared[i] = base.Clone()
					sharedErrs[i] = aerr
					if aerr != nil {
						continue
					}
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						sharedErrs[i] = s.Draw(shared[i], sharedStreams.Stream(i))
					}(i)
				}
				wg.Wait()
				for i := 0; i < n; i++ {
					per := base.Clone()
					perErr := ResimulateScratch(per, target, theta, perStreams.Stream(i), NewScratch())
					label := fmt.Sprintf("%d taxa target %d θ=%v candidate %d", nTips, target, theta, i)
					if errText(sharedErrs[i]) != errText(perErr) {
						t.Fatalf("%s: shared-region error %q, per-candidate error %q", label, errText(sharedErrs[i]), errText(perErr))
					}
					if perErr != nil {
						if aerr == nil {
							drawFailures++
						}
					} else {
						for k := range per.Nodes {
							if per.Nodes[k] != shared[i].Nodes[k] {
								t.Fatalf("%s: node %d differs: shared %+v, per-candidate %+v", label, k, shared[i].Nodes[k], per.Nodes[k])
							}
						}
						if per.Root != shared[i].Root {
							t.Fatalf("%s: root %d vs %d", label, shared[i].Root, per.Root)
						}
					}
					if a, b := sharedStreams.Stream(i).Uint32(), perStreams.Stream(i).Uint32(); a != b {
						t.Fatalf("%s: streams diverged after the draw", label)
					}
				}
			}
		}
	}
	if drawFailures == 0 || analyzeFailures == 0 {
		t.Fatalf("failure paths not exercised: %d failed draws, %d failed analyses", drawFailures, analyzeFailures)
	}
}

// TestDrawWithoutAnalyzeFails: a Scratch that never analyzed a region, or
// whose last Analyze failed, must refuse to draw rather than reuse a
// stale region.
func TestDrawWithoutAnalyzeFails(t *testing.T) {
	tr := ladderTree(t)
	s := NewScratch()
	if err := s.Draw(tr.Clone(), rng.NewMT19937(1)); err == nil {
		t.Fatal("Draw on a fresh Scratch succeeded")
	}
	if err := s.Analyze(tr, 4, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := s.Analyze(tr, tr.Root, 1.0); err == nil {
		t.Fatal("Analyze accepted the root as target")
	}
	if err := s.Draw(tr.Clone(), rng.NewMT19937(1)); err == nil {
		t.Fatal("Draw after a failed Analyze succeeded")
	}
}

// BenchmarkResimScratch measures one neighbourhood resimulation with a
// warm caller-owned Scratch: the per-draw fixed cost every sampler pays.
// allocs/op is the headline — it must be ~0, since the region analysis
// buffers all live in the Scratch.
func BenchmarkResimScratch(b *testing.B) {
	base := randomTree(b, 12, 912)
	tr := base.Clone()
	src := rng.NewMT19937(913)
	s := NewScratch()
	// Warm the scratch so growth allocations happen before measurement.
	if err := ResimulateScratch(tr, PickTarget(tr, src), 1.0, src, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CopyFrom(base)
		if err := ResimulateScratch(tr, PickTarget(tr, src), 1.0, src, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResimPooled is the same draw through the pooled Resimulate
// wrapper, for comparison with the explicit-Scratch path.
func BenchmarkResimPooled(b *testing.B) {
	base := randomTree(b, 12, 912)
	tr := base.Clone()
	src := rng.NewMT19937(914)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CopyFrom(base)
		if err := Resimulate(tr, PickTarget(tr, src), 1.0, src); err != nil {
			b.Fatal(err)
		}
	}
}

// resimRound runs the resimulation half of one GMH round on one stream:
// a target pick, then every candidate copied from base and redrawn —
// against one shared Analyze when shared is set (the production round),
// through ResimulateScratch per candidate otherwise.
func resimRound(tb testing.TB, base *gtree.Tree, cands []*gtree.Tree, s *Scratch, src rng.Source, shared bool) {
	target := PickTarget(base, src)
	if shared {
		if err := s.Analyze(base, target, 1.0); err != nil {
			tb.Fatal(err)
		}
	}
	for _, c := range cands {
		c.CopyFrom(base)
		var err error
		if shared {
			err = s.Draw(c, src)
		} else {
			err = ResimulateScratch(c, target, 1.0, src, s)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// clones returns n copies of base.
func clones(base *gtree.Tree, n int) []*gtree.Tree {
	out := make([]*gtree.Tree, n)
	for i := range out {
		out[i] = base.Clone()
	}
	return out
}

// TestResimRoundAllocFree: with a warm Scratch, a round of 8 candidates
// allocates nothing on either the shared-region or the per-candidate
// path.
func TestResimRoundAllocFree(t *testing.T) {
	base := randomTree(t, 32, 915)
	cands := clones(base, 8)
	for _, shared := range []bool{true, false} {
		s, src := NewScratch(), rng.NewMT19937(917)
		resimRound(t, base, cands, s, src, shared)
		if allocs := testing.AllocsPerRun(50, func() { resimRound(t, base, cands, s, src, shared) }); allocs != 0 {
			t.Errorf("shared=%v: %v allocs per round, want 0", shared, allocs)
		}
	}
}

// BenchmarkResimRound times the resimulation half of one GMH round of 8
// candidates (resimRound): "shared" analyzes the region once and draws
// every candidate against it, "per-candidate" repeats the analysis in
// each of 8 ResimulateScratch calls. allocs/op must be 0 for both.
func BenchmarkResimRound(b *testing.B) {
	for _, nTips := range []int{12, 32} {
		base := randomTree(b, nTips, 915)
		cands := clones(base, 8)
		for _, shared := range []bool{true, false} {
			name := fmt.Sprintf("taxa=%d/per-candidate", nTips)
			if shared {
				name = fmt.Sprintf("taxa=%d/shared", nTips)
			}
			b.Run(name, func(b *testing.B) {
				s, src := NewScratch(), rng.NewMT19937(916)
				resimRound(b, base, cands, s, src, shared) // warm the scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resimRound(b, base, cands, s, src, shared)
				}
			})
		}
	}
}
