package core

import (
	"fmt"
	"math"

	"mpcgs/internal/device"
)

// RelLogLikelihood returns log L(θ), the log of the relative likelihood of
// paper Eq. 26: the mean over sampled genealogies of P(G|θ)/P(G|θ0), by
// the fused kernel relLogLik. Unlike the paper's §5.2.3 kernel it
// launches no per-sample device threads: a sample's term is one multiply
// and one exp, so over a pass's ~10³ draws a launch and its terms buffer
// cost more than the work (four launches per evaluation ran no faster on
// n workers than on one). dev is kept for signature compatibility.
func RelLogLikelihood(s *SampleSet, theta float64, dev *device.Device) float64 {
	h, _, _ := relLogLik(postBurninStats(s), s.NTips, theta, s.Theta0)
	return h
}

// Curve evaluates log L(θ) over a grid of theta values, for likelihood
// curve reports (paper Fig. 5).
func Curve(s *SampleSet, thetas []float64, dev *device.Device) []float64 {
	out := make([]float64, len(thetas))
	for i, th := range thetas {
		out[i] = RelLogLikelihood(s, th, dev)
	}
	return out
}

func postBurninStats(s *SampleSet) []float64 {
	stats := s.PostBurninStats()
	if len(stats) == 0 {
		panic("core: relative likelihood with no post-burn-in samples")
	}
	return stats
}

// relLogLik is one serial pass over the draws' sufficient statistics
// S_i = Σ k(k-1)t, on which each log-ratio
// log[P(G_i|θ)/P(G_i|θ0)] = (n-1) log(θ0/θ) - S_i (1/θ - 1/θ0) depends.
// It returns h = log L(θ) and its first two derivatives in v = log θ,
//
//	h'  = E_w[S]/θ - (n-1)
//	h'' = Var_w[S]/θ² - E_w[S]/θ
//
// under the weights w_i ∝ exp(-S_i (1/θ - 1/θ0)). The weights are shifted
// by their running maximum (§5.3) and S is accumulated relative to the
// first draw, so nothing overflows and the variance does not cancel. At
// θ = θ0 every weight is exactly 1 and h exactly 0.
//
//mpcgs:hotpath
func relLogLik(stats []float64, nTips int, theta, theta0 float64) (h, dh, d2h float64) {
	d := 1/theta - 1/theta0
	ref := stats[0]
	shift := -d * ref
	var sw, swD, swD2 float64
	for _, st := range stats {
		x := -d * st
		if x > shift {
			r := math.Exp(shift - x)
			sw, swD, swD2 = sw*r, swD*r, swD2*r
			shift = x
		}
		w, off := math.Exp(x-shift), st-ref
		sw += w
		swD += w * off
		swD2 += w * off * off
	}
	mu := swD / sw
	mean, variance := ref+mu, math.Max(swD2/sw-mu*mu, 0)
	h = float64(nTips-1)*math.Log(theta0/theta) + shift + math.Log(sw/float64(len(stats)))
	return h, mean/theta - float64(nTips-1), variance/(theta*theta) - mean/theta
}

// MLEConfig tunes the θ maximization.
type MLEConfig struct {
	// Delta is the finite-difference half-width, relative to the current
	// theta, used only by MaximizeThetaGrowth. Zero selects 1e-6.
	Delta float64
	// Epsilon is the convergence threshold on theta movement, relative to
	// the current theta: MaximizeTheta stops once its Newton step moves θ
	// less than this, MaximizeThetaGrowth once its gradient would. Zero
	// selects 1e-8.
	Epsilon float64
	// MaxIterations bounds the ascent. Zero selects 200.
	MaxIterations int
}

func (c *MLEConfig) withDefaults() MLEConfig {
	out := *c
	if out.Delta <= 0 {
		out.Delta = 1e-6
	}
	if out.Epsilon <= 0 {
		out.Epsilon = 1e-8
	}
	if out.MaxIterations <= 0 {
		out.MaxIterations = 200
	}
	return out
}

// MaximizeTheta finds the θ maximizing the relative likelihood over the
// sample set by a Newton ascent on h(v) = log L(e^v), v = log θ, with the
// analytic derivatives of relLogLik. It keeps the safeguards of the paper's
// Algorithm 2: a step that would lower log L is halved instead, and one
// iteration at most doubles or halves θ, so a driving value far from the
// maximizer (Fig. 5's θ0 = 0.01) still climbs geometrically; where h is
// not concave it takes that full step uphill. dev is kept for signature
// compatibility.
func MaximizeTheta(s *SampleSet, cfg MLEConfig, dev *device.Device) (float64, error) {
	if s.Theta0 <= 0 {
		return 0, fmt.Errorf("core: sample set has non-positive driving theta %v", s.Theta0)
	}
	theta, _ := newtonAscent(postBurninStats(s), s.NTips, s.Theta0, cfg.withDefaults())
	return theta, nil
}

// newtonAscent is MaximizeTheta's ascent; it also counts kernel passes.
func newtonAscent(stats []float64, nTips int, theta0 float64, c MLEConfig) (theta float64, evals int) {
	at := func(theta float64) (h, grad, curv float64) {
		evals++
		return relLogLik(stats, nTips, theta, theta0)
	}
	theta = theta0
	h, grad, curv := at(theta)
	for iter := 0; iter < c.MaxIterations; iter++ {
		step := math.Copysign(math.Ln2, grad)
		if curv < 0 && math.Abs(grad) < -curv*math.Ln2 {
			step = -grad / curv
		}
		for {
			next := theta * math.Exp(step)
			if hn, gn, cn := at(next); hn >= h {
				theta, h, grad, curv = next, hn, gn, cn
				break
			}
			if math.Abs(step) <= c.Epsilon {
				return theta, evals // no resolvable ascent step left
			}
			step /= 2
		}
		if math.Abs(step) <= c.Epsilon {
			break
		}
	}
	return theta, evals
}
