package felsen

// Test-only likelihood paths: the recursive-descent site kernel (the
// paper's formulation, §5.2.2), per-site logs, and brute-force
// enumeration over interior states. All use the dense transition
// matrices, so they are the reference the closed-form pattern kernels
// are checked against.

import (
	"fmt"
	"math"

	"mpcgs/internal/bitseq"
	"mpcgs/internal/gtree"
	"mpcgs/internal/logspace"
	"mpcgs/internal/subst"
)

// LogLikelihoodRecursive returns log P(D|G) using the straightforward
// recursive-descent site kernel (the paper's formulation, §5.2.2). It is
// the reference the iterative kernel is validated against.
func (e *Evaluator) LogLikelihoodRecursive(t *gtree.Tree) float64 {
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	e.prepare(t, s)
	total := 0.0
	for site := 0; site < e.nSites; site++ {
		total += e.siteLogLikelihood(t, s, site)
	}
	return total
}

// SiteLogLikelihoods fills dst (length NSites) with the per-site
// log-likelihoods, for diagnostics and tests.
func (e *Evaluator) SiteLogLikelihoods(t *gtree.Tree, dst []float64) {
	if len(dst) != e.nSites {
		panic("felsen: SiteLogLikelihoods dst length mismatch")
	}
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	e.prepare(t, s)
	e.dev.LaunchBlocks(e.nSites, func(lo, hi int) {
		b := e.blockPool.Get().(*blockScratch)
		defer e.blockPool.Put(b)
		for site := lo; site < hi; site++ {
			dst[site] = e.siteLogLikelihoodIter(t, s, b, site)
		}
	})
}

// siteLogLikelihood performs the recursive post-order descent of Eq. 19
// for one site: L_n(X) for interior node n is the product over children c
// of sum_Y P_XY(t_c) L_c(Y); at the root the conditionals contract with
// the prior frequencies (Eq. 21). Missing data positions contribute the
// all-ones vector. Conditionals are renormalized whenever they shrink
// below rescaleThreshold, with the log-scale carried separately (§5.3).
func (e *Evaluator) siteLogLikelihood(t *gtree.Tree, s *scratch, site int) float64 {
	logScale := 0.0
	var rec func(node int) [4]float64
	rec = func(node int) [4]float64 {
		nd := &t.Nodes[node]
		if nd.IsTip() {
			if b, known := e.seqs[node].At(site); known {
				var v [4]float64
				v[b] = 1
				return v
			}
			return [4]float64{1, 1, 1, 1}
		}
		c0, c1 := nd.Child[0], nd.Child[1]
		l := rec(c0)
		r := rec(c1)
		m0, m1 := &s.mats[c0], &s.mats[c1]
		var out [4]float64
		maxv := 0.0
		for x := 0; x < 4; x++ {
			var s0, s1 float64
			for y := 0; y < 4; y++ {
				s0 += m0[x][y] * l[y]
				s1 += m1[x][y] * r[y]
			}
			out[x] = s0 * s1
			if out[x] > maxv {
				maxv = out[x]
			}
		}
		if maxv < rescaleThreshold && maxv > 0 {
			inv := 1 / maxv
			for x := 0; x < 4; x++ {
				out[x] *= inv
			}
			logScale += math.Log(maxv)
		}
		return out
	}
	rootCond := rec(t.Root)
	var siteL float64
	for x := 0; x < 4; x++ {
		siteL += e.freqs[x] * rootCond[x]
	}
	if siteL <= 0 {
		return logspace.NegInf
	}
	return math.Log(siteL) + logScale
}

// BruteForceLogLikelihood computes log P(D|G) by explicit enumeration of
// every assignment of nucleotides to interior nodes — exponential in tree
// size, usable only for tiny test trees (it refuses more than 7 interior
// nodes). It exists to validate the pruning recursion.
func BruteForceLogLikelihood(model subst.Model, seqs []*bitseq.Seq, t *gtree.Tree) (float64, error) {
	nInt := t.NInterior()
	if nInt > 7 {
		return 0, fmt.Errorf("felsen: brute force limited to 7 interior nodes, tree has %d", nInt)
	}
	nSites := seqs[0].Len()
	freqs := model.Freqs()
	mats := make([]subst.Matrix, t.NNodes())
	for i := range t.Nodes {
		if i != t.Root {
			model.TransitionInto(t.BranchLength(i), &mats[i])
		}
	}
	total := 0.0
	assign := make([]bitseq.Base, nInt)
	for site := 0; site < nSites; site++ {
		siteSum := 0.0
		var enumerate func(k int)
		enumerate = func(k int) {
			if k == nInt {
				p := freqs[assign[t.Root-t.NTips()]]
				for i := range t.Nodes {
					if i == t.Root {
						continue
					}
					parentState := assign[t.Nodes[i].Parent-t.NTips()]
					var childState bitseq.Base
					if t.IsTip(i) {
						b, known := seqs[i].At(site)
						if !known {
							continue // missing data: marginalized, factor 1
						}
						childState = b
					} else {
						childState = assign[i-t.NTips()]
					}
					p *= mats[i][parentState][childState]
				}
				siteSum += p
				return
			}
			for b := bitseq.Base(0); b < 4; b++ {
				assign[k] = b
				enumerate(k + 1)
			}
		}
		enumerate(0)
		if siteSum <= 0 {
			return logspace.NegInf, nil
		}
		total += math.Log(siteSum)
	}
	return total, nil
}
