package core

import (
	"fmt"
	"math"

	"mpcgs/internal/coalprior"
	"mpcgs/internal/device"
)

// Growth estimation implements the extension the paper's §7 calls for:
// estimating a second population parameter from the same genealogy
// samples. The chain is driven at (θ0, g = 0) — the constant-size
// proposal kernel — and the two-parameter relative likelihood
//
//	L(θ, g) = mean_i P(G_i | θ, g) / P(G_i | θ0, 0)
//
// is evaluated over the stored per-sample coalescent ages by importance
// reweighting, then maximized by the same trust-region gradient ascent as
// Algorithm 2, jointly over (θ, g). Estimates are reliable for moderate
// growth; strongly growing populations would need a growth-aware proposal
// kernel ("a new proposal kernel to propose genealogies with the posterior
// probability of that parameter", §7), which remains future work here too.

// RelLogLikelihoodGrowth returns log L(θ, g) over the sample set by the
// posterior likelihood kernel structure of §5.2.3 (per-sample threads,
// max-normalization, additive reduction).
func RelLogLikelihoodGrowth(s *SampleSet, theta, g float64, dev *device.Device) float64 {
	if dev == nil {
		dev = device.Serial()
	}
	ages := s.PostBurninAges()
	if len(ages) == 0 {
		panic("core: RelLogLikelihoodGrowth with no post-burn-in samples")
	}
	terms := make([]float64, len(ages))
	dev.Launch(len(ages), func(i int) {
		terms[i] = coalprior.LogPriorGrowthRatio(s.NTips, ages[i], theta, g, s.Theta0, 0)
	})
	return dev.ReduceLogSum(terms) - math.Log(float64(len(terms)))
}

// GrowthEstimate is the result of the two-parameter maximization.
type GrowthEstimate struct {
	Theta  float64
	Growth float64
	// LogL is the relative log-likelihood at the maximum.
	LogL float64
}

// MaximizeThetaGrowth jointly maximizes L(θ, g) from the sample set,
// starting at (θ0, 0). The ascent mirrors Algorithm 2 with a central
// finite-difference gradient in both coordinates, per-coordinate trust
// regions (θ may at most double per step; g moves at most gStep), and
// step-halving on non-improvement.
func MaximizeThetaGrowth(s *SampleSet, cfg MLEConfig, dev *device.Device) (*GrowthEstimate, error) {
	c := cfg.withDefaults()
	theta := s.Theta0
	if theta <= 0 {
		return nil, fmt.Errorf("core: sample set has non-positive driving theta %v", theta)
	}
	g := 0.0
	obj := func(th, gr float64) float64 { return RelLogLikelihoodGrowth(s, th, gr, dev) }

	// The growth trust region: |Δg| per iteration, in units of inverse
	// tree height so it is scale-appropriate for the data.
	meanHeight := 0.0
	ages := s.PostBurninAges()
	for _, a := range ages {
		meanHeight += a[len(a)-1]
	}
	meanHeight /= float64(len(ages))
	gStep := 1.0
	if meanHeight > 0 {
		gStep = 2.0 / meanHeight
	}

	for iter := 0; iter < c.MaxIterations; iter++ {
		dTheta := c.Delta * theta
		dG := c.Delta * math.Max(1, math.Abs(g))
		gradT := (obj(theta+dTheta, g) - obj(theta-dTheta, g)) / (2 * dTheta)
		gradG := (obj(theta, g+dG) - obj(theta, g-dG)) / (2 * dG)

		stepT, stepG := gradT, gradG
		if math.Abs(stepT) > theta {
			stepT = math.Copysign(theta, stepT)
		}
		if math.Abs(stepG) > gStep {
			stepG = math.Copysign(gStep, stepG)
		}
		cur := obj(theta, g)
		halvings := 0
		for ; halvings < 200; halvings++ {
			nt, ng := theta+stepT, g+stepG
			if nt > 0 && obj(nt, ng) >= cur {
				break
			}
			stepT /= 2
			stepG /= 2
		}
		if halvings == 200 {
			break
		}
		theta += stepT
		g += stepG
		if math.Abs(gradT) <= c.Epsilon*theta && math.Abs(gradG) <= c.Epsilon*math.Max(1, math.Abs(g)) {
			break
		}
	}
	return &GrowthEstimate{Theta: theta, Growth: g, LogL: obj(theta, g)}, nil
}
