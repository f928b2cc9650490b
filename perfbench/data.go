package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"time"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/stats"
	"mpcgs/internal/subst"
)

// trueTheta is the θ every workload simulates its data under.
const trueTheta = 1.0

// thetaBand is the plausibility band every estimate must fall in: within
// a factor of ten of the true θ.
var thetaBand = [2]float64{trueTheta / 10, trueTheta * 10}

func plausibleTheta(t float64) bool {
	return !math.IsNaN(t) && !math.IsInf(t, 0) && t >= thetaBand[0] && t <= thetaBand[1]
}

// dataSpec describes a simulated alignment pinned by site-pattern count:
// the alignment used is the first candidate of the data seed's sequence
// that compresses to a pattern count inside [PatLo, PatHi]. Pinning keeps
// the likelihood kernel's work per round comparable across data seeds;
// without it the coalescent's tree-length variance moves the pattern
// count by ±25% from seed to seed.
type dataSpec struct {
	Taxa, BP     int
	PatLo, PatHi int
}

// candidateSeed is the j-th alignment seed tried for data seed s;
// candidate 0 is s itself.
func candidateSeed(s uint64, j int) uint64 { return s + uint64(j)*0x9e3779b97f4a7c15 }

// pick returns the data seed and pattern count of the first candidate in
// the band. It is input selection, not part of any timed phase.
func (d dataSpec) pick(seed uint64) (uint64, int, error) {
	dev := device.Serial()
	defer dev.Close()
	for j := 0; j < 10000; j++ {
		ds := candidateSeed(seed, j)
		aln, _, err := seqgen.SimulateData(d.Taxa, d.BP, trueTheta, ds)
		if err != nil {
			return 0, 0, err
		}
		ev, err := newEvaluator(aln, dev)
		if err != nil {
			return 0, 0, err
		}
		if p := ev.NPatterns(); p >= d.PatLo && p <= d.PatHi {
			return ds, p, nil
		}
	}
	return 0, 0, fmt.Errorf("no %dx%d alignment with %d..%d patterns near seed %d", d.Taxa, d.BP, d.PatLo, d.PatHi, seed)
}

// newEvaluator builds the production likelihood (F81 with empirical base
// frequencies, the default model of mpcgs.Run) on dev.
func newEvaluator(aln *phylip.Alignment, dev *device.Device) (*felsen.Evaluator, error) {
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		return nil, err
	}
	return felsen.New(model, aln, dev)
}

// unitSeed derives the chain seed of the i-th unit of work of a run.
func unitSeed(seed uint64, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", seed, i)
	return h.Sum64() | 1
}

// drawHasher digests a draw stream: every draw's statistic, coalescent
// ages and log-likelihood, bit for bit, in recording order.
type drawHasher struct{ h uint64 }

func newDrawHasher() *drawHasher { return &drawHasher{h: 14695981039346656037} }

func (d *drawHasher) word(v float64) {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		d.h ^= b & 0xff
		d.h *= 1099511628211
		b >>= 8
	}
}

func (d *drawHasher) add(stat float64, ages []float64, logLik float64) {
	d.word(stat)
	for _, a := range ages {
		d.word(a)
	}
	d.word(logLik)
}

// hashSamples digests every recorded draw of a pass.
func hashSamples(s *core.SampleSet) uint64 {
	d := newDrawHasher()
	for i := range s.Stats {
		d.add(s.Stats[i], s.Ages[i], s.LogLik[i])
	}
	return d.h
}

// tmrcaESS is the effective sample size of the TMRCA (the oldest
// coalescent age) over a pass's post-burn-in draws.
func tmrcaESS(s *core.SampleSet) float64 {
	ages := s.PostBurninAges()
	xs := make([]float64, len(ages))
	for i, a := range ages {
		xs[i] = a[len(a)-1]
	}
	return essOf(xs)
}

// statESS is the effective sample size of the recorded statistic
// Σ k(k−1)·t_k over a pass's post-burn-in draws. The relative likelihood
// L(θ), and so the θ estimate, depends on a genealogy only through it,
// so this is the ESS of the estimate.
func statESS(s *core.SampleSet) float64 { return essOf(s.PostBurninStats()) }

// essOf estimates the effective sample size of a trace by batch means:
// ⌊√n⌋ batches, ESS = n·var(x)/(batch size·var(batch means)), capped at
// n. A trace that never moved counts as one draw. internal/stats'
// initial-positive-sequence estimator is not used here: it stops at the
// first non-positive autocorrelation, so a step-like trace (a 32-taxon
// TMRCA that jumps once, late in the pass) reads as n independent draws,
// and those outliers swamp any sum over passes.
func essOf(xs []float64) float64 {
	n := len(xs)
	v := stats.Variance(xs)
	if n < 4 || !(v > 0) {
		return min(1, float64(n))
	}
	batches := int(math.Sqrt(float64(n)))
	size := n / batches
	means := make([]float64, batches)
	for b := range means {
		means[b] = stats.Mean(xs[b*size : (b+1)*size])
	}
	bv := stats.Variance(means)
	if !(bv > 0) {
		return float64(n)
	}
	return min(float64(n), float64(n)*v/(float64(size)*bv))
}

// validDraws reports whether every recorded draw has a finite positive
// TMRCA and a finite log-likelihood.
func validDraws(s *core.SampleSet) bool {
	for i, a := range s.Ages {
		if len(a) == 0 || !(a[len(a)-1] > 0) || math.IsInf(a[len(a)-1], 0) {
			return false
		}
		if ll := s.LogLik[i]; math.IsNaN(ll) || math.IsInf(ll, 0) {
			return false
		}
	}
	return true
}

// setupReps is how many times a run repeats its set-up, before and
// again after its measured phase.
func setupReps(o *options) int {
	if o.Smoke {
		return 1
	}
	return 11
}

// setupTimer times a workload's set-up: each call to measure builds it
// reps times, releasing every build. A run measures before and after its
// measured phase and reports the median of all builds.
type setupTimer struct {
	build func() (release func(), err error)
	times []float64
}

func (s *setupTimer) measure(reps int) error {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		release, err := s.build()
		s.times = append(s.times, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		release()
		// Collect the released build now, so set-up garbage does not
		// inflate the run's peak resident memory.
		runtime.GC()
	}
	return nil
}

func (s *setupTimer) median() float64 { return median(s.times) }

func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

func hashHex(h uint64) string { return fmt.Sprintf("%016x", h) }
