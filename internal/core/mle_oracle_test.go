package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mpcgs/internal/coalprior"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/logspace"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// relLogLikelihoodOracle is the per-sample form of the §5.2.3 kernel:
// one log prior ratio per draw, then a max-normalized log mean.
func relLogLikelihoodOracle(s *SampleSet, theta float64) float64 {
	stats := s.PostBurninStats()
	terms := make([]float64, len(stats))
	for i, st := range stats {
		terms[i] = coalprior.LogPriorRatio(s.NTips, st, theta, s.Theta0)
	}
	return logspace.Mean(terms)
}

// maximizeThetaAlgorithm2 is the reference oracle for MaximizeTheta: the
// iterative gradient ascent of the paper's Algorithm 2. A central
// finite-difference gradient proposes a step, the step is halved while it
// would reduce the objective or drive θ non-positive, and the ascent stops
// when θ moves less than epsilon. The ascent runs on log L(θ), a monotone
// transform of the paper's L(θ) with the same maximizer but a far wider
// dynamic range (§5.3).
func maximizeThetaAlgorithm2(s *SampleSet, cfg MLEConfig) (float64, error) {
	c := cfg.withDefaults()
	theta := s.Theta0
	if theta <= 0 {
		return 0, fmt.Errorf("core: sample set has non-positive driving theta %v", theta)
	}
	obj := func(t float64) float64 { return relLogLikelihoodOracle(s, t) }

	for iter := 0; iter < c.MaxIterations; iter++ {
		delta := c.Delta * theta
		grad := (obj(theta+delta) - obj(theta-delta)) / (2 * delta)
		step := grad
		// Trust region: cap the step at the current theta so one
		// iteration at most doubles the estimate. Without the cap, a
		// driving value far below the maximizer (the Fig. 5 setting,
		// theta0 = 0.01) has an enormous gradient that overshoots onto
		// the flat far slope of the curve, where the raw Algorithm 2
		// crawls; the cap turns the approach into a geometric climb.
		if math.Abs(step) > theta {
			step = math.Copysign(theta, step)
		}
		// Halve the step until it is admissible: positive destination
		// and non-decreasing objective (Algorithm 2's inner loop).
		cur := obj(theta)
		halvings := 0
		for ; halvings < 200; halvings++ {
			next := theta + step
			if next > 0 && obj(next) >= cur {
				break
			}
			step /= 2
		}
		if halvings == 200 {
			return theta, nil // gradient direction yields no improvement
		}
		theta += step
		// Converged once the raw gradient itself would move theta by
		// less than epsilon relative — a clamped or halved step still
		// counts as progress.
		if math.Abs(grad) <= c.Epsilon*theta {
			return theta, nil
		}
	}
	return theta, nil
}

// gmhSampleSet runs one GMH sampling pass at driving value theta0 over a
// simulated 12-taxon × 1000 bp alignment: the em-paper benchmark's shape.
func gmhSampleSet(theta0 float64, seed uint64) (*SampleSet, error) {
	aln, _, err := seqgen.SimulateData(12, 1000, 1.0, 20160401)
	if err != nil {
		return nil, err
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		return nil, err
	}
	dev := device.New(2)
	defer dev.Close()
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		return nil, err
	}
	init, err := InitialTree(aln, theta0, 7)
	if err != nil {
		return nil, err
	}
	res, err := NewGMH(eval, dev, 8).Run(init, ChainConfig{Theta: theta0, Burnin: 100, Samples: 1000, Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Samples, nil
}

type namedSet struct {
	name string
	set  *SampleSet
}

// oracleCorpus is the synthetic sets of mle_test.go plus GMH sample sets
// at four chain seeds and two driving values, built once per test binary.
var oracleCorpus = sync.OnceValues(func() ([]namedSet, error) {
	corpus := []namedSet{
		{"closed-form", syntheticSet(0.5, 6, []float64{3.7})},
		{"far-start", syntheticSet(0.01, 10, []float64{9.0})},
		{"grid", syntheticSet(0.8, 7, []float64{2.0, 3.5, 5.0, 4.2, 2.8})},
		{"tiny-S", syntheticSet(1.0, 4, []float64{1e-6})},
		{"parallel", syntheticSet(0.6, 8, []float64{1.0, 2.0, 3.0, 4.0, 5.0, 2.5, 3.5, 1.5})},
	}
	for _, theta0 := range []float64{0.5, 1} {
		for seed := uint64(1); seed <= 4; seed++ {
			s, err := gmhSampleSet(theta0, seed)
			if err != nil {
				return nil, err
			}
			corpus = append(corpus, namedSet{fmt.Sprintf("gmh-theta0=%v-seed=%d", theta0, seed), s})
		}
	}
	return corpus, nil
})

func mustOracleCorpus(t *testing.T) []namedSet {
	t.Helper()
	corpus, err := oracleCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestMaximizeThetaMatchesAlgorithm2 pins the Newton ascent to the
// Algorithm 2 oracle: the same maximizer to 1e-6 relative, and a
// likelihood at the Newton estimate no lower than at the oracle's.
func TestMaximizeThetaMatchesAlgorithm2(t *testing.T) {
	defaults := (&MLEConfig{}).withDefaults()
	for _, c := range mustOracleCorpus(t) {
		name, s := c.name, c.set
		want, err := maximizeThetaAlgorithm2(s, MLEConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
		if err != nil {
			t.Fatal(err)
		}
		_, evals := newtonAscent(s.PostBurninStats(), s.NTips, s.Theta0, defaults)
		t.Logf("%s: θ̂ %.10g, relative difference %.2g, %d Newton evaluations", name, got, math.Abs(got-want)/want, evals)
		if rel := math.Abs(got-want) / want; rel > 1e-6 {
			t.Errorf("%s: Newton θ̂ %v, Algorithm 2 θ̂ %v (relative difference %.3g)", name, got, want, rel)
		}
		lGot := RelLogLikelihood(s, got, nil)
		lWant := RelLogLikelihood(s, want, nil)
		if lGot < lWant-1e-12*math.Max(1, math.Abs(lWant)) {
			t.Errorf("%s: log L(Newton θ̂) = %v below log L(Algorithm 2 θ̂) = %v", name, lGot, lWant)
		}
	}
}

// TestRelLogLikMatchesOracle checks the fused kernel against the
// per-sample form, and its analytic derivatives of h(v) = log L(e^v)
// against central finite differences of RelLogLikelihood.
func TestRelLogLikMatchesOracle(t *testing.T) {
	for _, c := range mustOracleCorpus(t) {
		name, s := c.name, c.set
		theta := 1.5 * s.Theta0 // off the driving value, where the weights differ
		h, grad, curv := relLogLik(s.PostBurninStats(), s.NTips, theta, s.Theta0)
		if want := relLogLikelihoodOracle(s, theta); math.Abs(h-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("%s: fused log L %v, per-sample %v", name, h, want)
		}
		// Fourth-order central differences in v = log θ.
		hv := func(v float64) float64 { return RelLogLikelihood(s, theta*math.Exp(v), nil) }
		const dv = 1e-3
		hm2, hm1, h0, hp1, hp2 := hv(-2*dv), hv(-dv), hv(0), hv(dv), hv(2*dv)
		fdGrad := (hm2 - 8*hm1 + 8*hp1 - hp2) / (12 * dv)
		fdCurv := (-hm2 + 16*hm1 - 30*h0 + 16*hp1 - hp2) / (12 * dv * dv)
		if math.Abs(grad-fdGrad) > 1e-6*math.Max(1, math.Abs(fdGrad)) {
			t.Errorf("%s: analytic h' %v, finite difference %v", name, grad, fdGrad)
		}
		if math.Abs(curv-fdCurv) > 1e-6*math.Max(1, math.Abs(fdCurv)) {
			t.Errorf("%s: analytic h'' %v, finite difference %v", name, curv, fdCurv)
		}
	}
}
