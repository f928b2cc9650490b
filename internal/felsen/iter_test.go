package felsen

import (
	"math"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
	"mpcgs/internal/subst"
)

// TestIterativeMatchesRecursive validates the optimized flat-buffer site
// kernel against the paper's recursive formulation over many random trees
// and datasets, including missing data and deep trees that trigger
// rescaling.
func TestIterativeMatchesRecursive(t *testing.T) {
	src := rng.NewMT19937(900)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(src, 20)
		names := make([]string, n)
		for i := range names {
			names[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		theta := []float64{0.2, 1.0, 15.0}[trial%3]
		tr, err := gtree.RandomCoalescent(names, theta, src)
		if err != nil {
			t.Fatal(err)
		}
		aln := randomAlignment(src, n, 30)
		// Punch some missing data into the alignment.
		for k := 0; k < 20; k++ {
			aln.Seqs[rng.Intn(src, n)].SetUnknown(rng.Intn(src, 30))
		}
		e := mustEval(t, subst.NewJC69(), aln, device.New(4))
		iter := e.LogLikelihoodSerial(tr)
		rec := e.LogLikelihoodRecursive(tr)
		if math.Abs(iter-rec) > 1e-9*math.Max(1, math.Abs(rec)) {
			t.Fatalf("trial %d (n=%d theta=%v): iterative %v != recursive %v", trial, n, theta, iter, rec)
		}
		par := e.LogLikelihood(tr)
		if math.Abs(par-rec) > 1e-9*math.Max(1, math.Abs(rec)) {
			t.Fatalf("trial %d: parallel %v != recursive %v", trial, par, rec)
		}
	}
}

// TestIterativeRescalingDeepTree forces the rescaling path in the
// iterative site kernel and cross-checks the recursive one. The per-site
// likelihood of n saturated tips is about 4^-n, so conditionals cross
// rescaleThreshold (1e-150) only above ~250 tips: at 300 taxa and θ = 30
// the nodes near the root fall below it. The test asserts that the site
// kernel really rescaled (a non-zero root scale on some site) before
// comparing LogLikelihoodSerial and the device-parallel LogLikelihood with
// the recursive oracle.
func TestIterativeRescalingDeepTree(t *testing.T) {
	src := rng.NewMT19937(901)
	const n, nSites = 300, 10
	names := make([]string, n)
	for i := range names {
		names[i] = "x" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	tr, err := gtree.RandomCoalescent(names, 30.0, src)
	if err != nil {
		t.Fatal(err)
	}
	aln := randomAlignment(src, n, nSites)
	e := mustEval(t, subst.NewJC69(), aln, device.New(8))
	s := e.pool.Get().(*scratch)
	b := e.blockPool.Get().(*blockScratch)
	e.prepare(tr, s)
	rescaled := 0
	for site := 0; site < nSites; site++ {
		e.siteLogLikelihoodIter(tr, s, b, site)
		if b.scale[tr.Root] != 0 {
			rescaled++
		}
	}
	if rescaled == 0 {
		t.Fatal("no site was rescaled; the case does not reach rescaleThreshold")
	}
	rec := e.LogLikelihoodRecursive(tr)
	for name, iter := range map[string]float64{"serial": e.LogLikelihoodSerial(tr), "device": e.LogLikelihood(tr)} {
		if math.IsInf(iter, 0) || math.IsNaN(iter) {
			t.Fatalf("%s iterative logL = %v on deep tree", name, iter)
		}
		if math.Abs(iter-rec) > 1e-9*math.Abs(rec) {
			t.Fatalf("deep tree: %s iterative %v != recursive %v", name, iter, rec)
		}
	}
}

func BenchmarkSiteKernelIterative(b *testing.B) {
	src := rng.NewMT19937(902)
	n := 12
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + string(rune('a'+i))
	}
	tr, err := gtree.RandomCoalescent(names, 1.0, src)
	if err != nil {
		b.Fatal(err)
	}
	aln := randomAlignment(src, n, 200)
	e, err := New(subst.NewJC69(), aln, device.Serial())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LogLikelihoodSerial(tr)
	}
}

func BenchmarkSiteKernelRecursive(b *testing.B) {
	src := rng.NewMT19937(902)
	n := 12
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + string(rune('a'+i))
	}
	tr, err := gtree.RandomCoalescent(names, 1.0, src)
	if err != nil {
		b.Fatal(err)
	}
	aln := randomAlignment(src, n, 200)
	e, err := New(subst.NewJC69(), aln, device.Serial())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LogLikelihoodRecursive(tr)
	}
}
