package core

import (
	"fmt"
	"math"
	"testing"

	"mpcgs/internal/coalprior"
	"mpcgs/internal/device"
	"mpcgs/internal/logspace"
	"mpcgs/internal/rng"
)

func syntheticSet(theta0 float64, nTips int, stats []float64) *SampleSet {
	return &SampleSet{
		NTips:  nTips,
		Theta0: theta0,
		Stats:  stats,
		LogLik: make([]float64, len(stats)),
	}
}

func TestRelLogLikelihoodAtTheta0IsZero(t *testing.T) {
	s := syntheticSet(1.3, 5, []float64{0.8, 1.2, 2.0})
	if got := RelLogLikelihood(s, 1.3, device.Serial()); math.Abs(got) > 1e-12 {
		t.Errorf("log L(theta0) = %v, want 0", got)
	}
}

func TestRelLogLikelihoodMatchesDirectMean(t *testing.T) {
	s := syntheticSet(1.0, 4, []float64{0.5, 1.5, 3.0, 0.9})
	theta := 2.2
	terms := make([]float64, len(s.Stats))
	for i, st := range s.Stats {
		terms[i] = coalprior.LogPriorRatio(4, st, theta, 1.0)
	}
	want := logspace.Mean(terms)
	got := RelLogLikelihood(s, theta, device.New(4))
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("RelLogLikelihood = %v, want %v", got, want)
	}
}

func TestMaximizeThetaSingleSampleClosedForm(t *testing.T) {
	// With one sample, log L(theta) = (n-1) log(theta0/theta)
	// - S (1/theta - 1/theta0), maximized at theta* = S/(n-1).
	nTips := 6
	sumKKT := 3.7
	want := sumKKT / float64(nTips-1)
	s := syntheticSet(0.5, nTips, []float64{sumKKT})
	got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-10*want {
		t.Errorf("MaximizeTheta = %v, want %v", got, want)
	}
}

func TestMaximizeThetaStationarity(t *testing.T) {
	// At the maximizer the score vanishes: θ̂ = E_w[S]/(n-1) under the
	// importance weights w_i ∝ P(G_i|θ̂)/P(G_i|θ0), computed here per
	// sample, apart from the fused kernel.
	for _, s := range []*SampleSet{
		syntheticSet(0.8, 7, []float64{2.0, 3.5, 5.0, 4.2, 2.8}),
		syntheticSet(0.6, 8, []float64{1.0, 2.0, 3.0, 4.0, 5.0, 2.5, 3.5, 1.5}),
		syntheticSet(0.05, 12, priorStats(1000, 12, 1.0, 3)),
	} {
		got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
		if err != nil {
			t.Fatal(err)
		}
		logw := make([]float64, len(s.Stats))
		for i, st := range s.Stats {
			logw[i] = coalprior.LogPriorRatio(s.NTips, st, got, s.Theta0)
		}
		m := logspace.Max(logw)
		var sw, swS float64
		for i, st := range s.Stats {
			w := math.Exp(logw[i] - m)
			sw += w
			swS += w * st
		}
		if want := swS / sw / float64(s.NTips-1); math.Abs(got-want) > 1e-9*want {
			t.Errorf("θ0 = %v: θ̂ = %v, E_w[S]/(n-1) = %v", s.Theta0, got, want)
		}
	}
}

func TestMaximizeThetaAllZeroStats(t *testing.T) {
	// Every genealogy with zero-length intervals: log L rises without
	// bound as θ falls. The ascent must still return a usable value.
	s := syntheticSet(0.5, 5, []float64{0, 0, 0, 0})
	got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if !(got > 0) || math.IsInf(got, 0) {
		t.Errorf("MaximizeTheta on all-zero S = %v, want positive and finite", got)
	}
}

func TestMaximizeThetaFarStart(t *testing.T) {
	// Driving theta far below the maximizer (the paper's Fig. 5 setup:
	// theta0 = 0.01, truth near 1): the ascent must still climb there.
	nTips := 10
	sumKKT := 9.0 // theta* = 1.0
	s := syntheticSet(0.01, nTips, []float64{sumKKT})
	got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0) > 1e-3 {
		t.Errorf("MaximizeTheta from 0.01 = %v, want 1.0", got)
	}
}

func TestMaximizeThetaMatchesGridSearch(t *testing.T) {
	s := syntheticSet(0.8, 7, []float64{2.0, 3.5, 5.0, 4.2, 2.8})
	dev := device.Serial()
	got, err := MaximizeTheta(s, MLEConfig{}, dev)
	if err != nil {
		t.Fatal(err)
	}
	bestTheta, bestVal := 0.0, math.Inf(-1)
	for theta := 0.05; theta < 5; theta += 0.0005 {
		if v := RelLogLikelihood(s, theta, dev); v > bestVal {
			bestVal, bestTheta = v, theta
		}
	}
	if math.Abs(got-bestTheta) > 0.002 {
		t.Errorf("MaximizeTheta = %v, grid search = %v", got, bestTheta)
	}
	if RelLogLikelihood(s, got, dev) < bestVal-1e-6 {
		t.Errorf("ascent value %v below grid value %v", RelLogLikelihood(s, got, dev), bestVal)
	}
}

func TestMaximizeThetaStaysPositive(t *testing.T) {
	// A sample set pushing theta towards zero must not cross it.
	s := syntheticSet(1.0, 4, []float64{1e-6})
	got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Errorf("MaximizeTheta = %v, want positive", got)
	}
}

// priorStats draws n statistics S = Σ k(k-1)t of nTips-tip genealogies
// under the coalescent prior at theta: each k(k-1)t_k is θ·Exp(1).
func priorStats(n, nTips int, theta float64, seed uint32) []float64 {
	src := rng.NewMT19937(seed)
	out := make([]float64, n)
	for i := range out {
		for k := nTips; k >= 2; k-- {
			out[i] += theta * rng.Exp(src, 1)
		}
	}
	return out
}

func TestMaximizeThetaZeroAllocs(t *testing.T) {
	s := syntheticSet(0.5, 12, priorStats(1000, 12, 1.0, 1))
	dev := device.Serial()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := MaximizeTheta(s, MLEConfig{}, dev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MaximizeTheta allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkMaximizeTheta times one M-step over prior draws at θ = 1
// driven at θ0 = 0.5, the spread of a first EM iteration, and reports
// the kernel passes it takes.
func BenchmarkMaximizeTheta(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("draws=%d", n), func(b *testing.B) {
			s := syntheticSet(0.5, 12, priorStats(n, 12, 1.0, 2))
			dev := device.Serial()
			_, evals := newtonAscent(s.Stats, s.NTips, s.Theta0, (&MLEConfig{}).withDefaults())
			b.ReportAllocs()
			for b.Loop() {
				if _, err := MaximizeTheta(s, MLEConfig{}, dev); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(evals), "evals/op")
		})
	}
}

func TestCurveShape(t *testing.T) {
	// The relative likelihood curve must peak near the analytic maximizer
	// and fall off on both sides (paper Fig. 5).
	nTips := 6
	s := syntheticSet(0.3, nTips, []float64{5.0})
	want := 1.0 // S/(n-1)
	thetas := []float64{0.1, 0.5, want, 2.0, 5.0}
	vals := Curve(s, thetas, device.New(2))
	peak := vals[2]
	for i, v := range vals {
		if i != 2 && v >= peak {
			t.Errorf("curve at theta=%v (%v) not below peak at %v (%v)", thetas[i], v, want, peak)
		}
	}
}

func TestRelLogLikelihoodPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty sample set")
		}
	}()
	s := &SampleSet{NTips: 4, Theta0: 1}
	RelLogLikelihood(s, 1, device.Serial())
}

func TestMaximizeThetaParallelMatchesSerial(t *testing.T) {
	s := syntheticSet(0.6, 8, []float64{1.0, 2.0, 3.0, 4.0, 5.0, 2.5, 3.5, 1.5})
	a, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaximizeTheta(s, MLEConfig{}, device.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("serial %v != parallel %v", a, b)
	}
}
