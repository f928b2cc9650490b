package felsen

// Wave-fused multiple-proposal evaluation.
//
// Every candidate of one GMH round resimulates the same neighbourhood of
// the current state (the auxiliary variable φ, paper §4.3): the proposal
// rewrites exactly the target node φ and its parent slot, and the parent
// slot re-attaches to the same ancestor. Consequently all N candidates
// share the base genealogy's root path above the neighbourhood — the
// parent's ancestors up to the root — and, hanging off every root-path
// node, the same untouched sibling subtree whose conditionals already sit
// in the delta cache. The per-candidate delta evaluation still walks that
// shared path N times, recomputing for each candidate the identical
// clean-side edge products.
//
// A Wave lifts that shared work out of the proposal loop. BindRound
// computes, once per round, the outer-partial lanes of every root-path
// node v:
//
//	outer_v[x](pat) = (P_{v→clean(v)} · cond_{clean(v)}(pat))_x
//
// — the clean-child edge product the kernel would otherwise evaluate per
// candidate — plus the round-invariant transitions of the chain edges
// above the ancestor. Eval then evaluates the whole candidate set as one
// fused (proposal × pattern-block) grid: each cell computes its block's
// target and parent rows, then walks the root path multiplying a single
// dirty-side edge product against the shared outer lane per node, and
// finishes with the block's root-contraction partial. Per-proposal work
// drops from two edge products per root-path node to one, from two fresh
// edge transitions per dirty node to five per proposal plus a shared set,
// and the round's N nested block launches fuse into one grid. Every edge
// product is the closed form subst.Coeffs.Apply, as in runBlock.
//
// # Bit-identity with the per-candidate path
//
// The wave is not an approximation and not merely "close": it returns the
// exact bits LogLikelihoodDelta returns for every candidate. That holds
// because the lift only ever precomputes one full operand of a
// multiplication the per-candidate kernel performs anyway — outer_v is
// evaluated by the same subst.Coeffs.Apply runBlock calls, from the same
// cached lanes and the same deterministic CoeffsAt coefficients — and
// IEEE-754 multiplication and addition are commutative at the bit level,
// so (inner·outer) and (ls+rs) do not care which side was cached. The
// per-node operation order (children's edge products, rescale test and
// shared rescale helper, scale add) matches runBlock exactly, the
// per-pattern order within a block and the block partial order within a
// proposal are fixed, and the grid cells write disjoint slots. Results are
// therefore bit-identical across worker counts, repeat runs, kill/resume,
// and against the per-candidate oracle path.
//
// # Validity contract
//
// A bound round is valid only for candidate trees that differ from the
// cache's base exactly in the slots {φ, parent(φ)}, with the parent slot
// attached to the same ancestor (or being the root when parent(φ) was the
// root) — precisely what resim.ResimulateScratch(t, φ, ...) produces on a
// copy of the base. Anything that moves the cache's base (RebaseTo,
// Rebase, Commit) or changes φ invalidates the binding: callers must
// BindRound again after every accepted move and every fresh φ draw. Eval
// panics without a bound round.

import (
	"mpcgs/internal/gtree"
	"mpcgs/internal/subst"
)

// waveProp is one live candidate of the bound round: its tree, the output
// slot its log-likelihood lands in, and the five proposal-specific edge
// transitions (the target's two child edges, the parent's two child
// edges, and the ancestor→parent edge — every other edge the evaluation
// touches is round-invariant and shared).
type waveProp struct {
	t    *gtree.Tree
	slot int
	// tm0/tm1 are the target's child edges in Child-array order.
	tm0, tm1 subst.Coeffs
	// pmPhi is the parent→φ edge, pmClean the parent's other (clean)
	// child edge; pclean that child's node index.
	pmPhi, pmClean subst.Coeffs
	pclean         int
	// am is the ancestor→parent edge; unused in the root case.
	am subst.Coeffs
	// tl/tr/cv are the target's children's and the parent's clean child's
	// full-length lane sources (tip table or cache), resolved once per
	// proposal so the grid cells select tip cells by slicing instead of
	// re-branching per cell.
	tlc, tls []float64
	trc, trs []float64
	cvc, cvs []float64
}

// waveScratch is the per-cell working row of the wave kernel: one node's
// conditional lanes for one pattern block, overwritten in place as the
// cell walks target → parent → root path.
type waveScratch struct {
	cond  []float64 // nStates lanes of blockSize patterns each
	scale []float64 // blockSize
}

// Wave evaluates GMH proposal sets against one DeltaCache as fused
// (proposal × pattern-block) grids with a per-round outer-partial lift.
// A Wave is bound to one evaluator and one cache; it is not safe for
// concurrent use (one sampler run owns it, like a resim.Scratch).
type Wave struct {
	e *Evaluator
	c *DeltaCache

	// Round state, set by BindRound.
	phi      int
	parent   int
	rootCase bool
	// path holds the parent's ancestors bottom-up: path[0] is the
	// ancestor, path[len-1] the root. Empty in the root case.
	path []int
	// cleanCh[k] is path[k]'s child off the chain (the untouched sibling
	// subtree); chainEdge[k] the path[k]→path[k-1] edge for k ≥ 1 (the
	// k = 0 edge, ancestor→parent, is proposal-specific); cleanEdge[k]
	// the path[k]→cleanCh[k] edge.
	cleanCh   []int
	chainEdge []subst.Coeffs
	cleanEdge []subst.Coeffs
	// outer holds the lift lanes, path-node-major: node k's state lane x
	// is outer[(k*nStates+x)*nPatterns:][:nPatterns]. cleanCond[k] and
	// cleanScale[k] are cleanCh[k]'s state lanes and rescaling-log lane
	// (cache or tip-table slices), resolved once per round so neither the
	// lift blocks nor the grid cells branch on tip-ness.
	outer      []float64
	cleanCond  [][]float64
	cleanScale [][]float64
	bound      bool

	// Eval state: the live candidates and the (block, proposal) partial
	// sums, sums[b*len(props)+li], reduced per proposal in block order.
	props []waveProp
	sums  []float64

	liftKernel func(b int)
	cellKernel func(cell int)
}

// NewWave builds a wave evaluator over c's conditionals. The cache may be
// rebased freely afterwards; each BindRound reads the then-current base.
func (e *Evaluator) NewWave(c *DeltaCache) *Wave {
	w := &Wave{e: e, c: c}
	w.liftKernel = w.runLiftBlock
	w.cellKernel = w.runCell
	return w
}

// rowOf returns a clean node's conditional lanes: the shared tip table for
// tips (scale lane the shared all-zero lane), the cache row otherwise —
// the same sources the per-candidate kernel reads clean rows from.
func (w *Wave) rowOf(node int) (cond, scale []float64) {
	e := w.e
	nPat := e.nPatterns
	nTips := len(e.seqs)
	if node < nTips {
		return e.tipCond[node*nStates*nPat : (node+1)*nStates*nPat], e.zeroScale
	}
	r := node - nTips
	return w.c.cond[r*nStates*nPat : (r+1)*nStates*nPat], w.c.scale[r*nPat : (r+1)*nPat]
}

// BindRound fixes the round's resimulation target φ and computes the
// outer-partial lift against the cache's current base: the root path, its
// round-invariant edge transitions, and every path node's clean-side edge
// product lanes. Must be called after the cache is settled on the current
// state and before Eval; any cache rebase or new φ requires a new bind.
//
//mpcgs:hotpath
func (w *Wave) BindRound(phi int) {
	if !w.c.valid {
		panic("felsen: Wave.BindRound on cache with no base; call Rebase first")
	}
	base := w.c.base
	if phi < base.NTips() || phi >= base.NNodes() || phi == base.Root {
		panic("felsen: Wave.BindRound target is not a non-root interior node")
	}
	e := w.e
	w.phi = phi
	w.parent = base.Nodes[phi].Parent
	w.rootCase = base.Nodes[w.parent].Parent == gtree.Nil

	// The shared root path: the parent's ancestors bottom-up. The chain
	// child entering path[k] is the parent for k = 0 and path[k-1] above.
	w.path = w.path[:0]
	w.cleanCh = w.cleanCh[:0]
	prev := w.parent
	for v := base.Nodes[w.parent].Parent; v != gtree.Nil; v = base.Nodes[v].Parent {
		w.path = append(w.path, v)
		vn := &base.Nodes[v]
		if vn.Child[0] == prev {
			w.cleanCh = append(w.cleanCh, vn.Child[1])
		} else {
			w.cleanCh = append(w.cleanCh, vn.Child[0])
		}
		prev = v
	}
	depth := len(w.path)
	if cap(w.chainEdge) < depth {
		w.chainEdge = make([]subst.Coeffs, depth) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
		w.cleanEdge = make([]subst.Coeffs, depth) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
	} else {
		w.chainEdge = w.chainEdge[:depth]
		w.cleanEdge = w.cleanEdge[:depth]
	}
	w.cleanCond = w.cleanCond[:0]
	w.cleanScale = w.cleanScale[:0]
	prev = w.parent
	for k, v := range w.path {
		vn := &base.Nodes[v]
		if k > 0 {
			// Both endpoints of the chain edge are untouched by every
			// candidate, so its transition is round-invariant. (The
			// k = 0 edge length depends on the candidate's parent age.)
			w.chainEdge[k] = e.model.CoeffsAt(vn.Age - base.Nodes[prev].Age)
		}
		clean := w.cleanCh[k]
		w.cleanEdge[k] = e.model.CoeffsAt(vn.Age - base.Nodes[clean].Age)
		cc, cs := w.rowOf(clean)
		w.cleanCond = append(w.cleanCond, cc)
		w.cleanScale = append(w.cleanScale, cs)
		prev = v
	}

	// Lift lanes: one clean-side edge product per path node, state and
	// pattern — shared by every candidate of the round.
	nPat := e.nPatterns
	if need := depth * nStates * nPat; cap(w.outer) < need {
		w.outer = make([]float64, need) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
	} else {
		w.outer = w.outer[:depth*nStates*nPat]
	}
	if depth > 0 {
		bs := e.blockSize
		nBlocks := (nPat + bs - 1) / bs
		// Cells write disjoint lanes and there is no reduction, so the
		// schedule cannot affect results; the gate is execution-only,
		// like evalDelta's.
		if nBlocks > 1 && e.dev.Workers() > 1 && depth*nPat >= blockParallelMinWork {
			e.dev.LaunchAffine(nBlocks, w.liftKernel)
		} else {
			for b := 0; b < nBlocks; b++ {
				w.runLiftBlock(b)
			}
		}
	}
	w.bound = true
}

// runLiftBlock fills one pattern block of every path node's outer lanes:
// outer_k = cleanEdge[k]·cond_clean per pattern, through the same
// Coeffs.Apply runBlock calls — the lift must produce the exact bits the
// per-candidate kernel would.
//
//mpcgs:hotpath
func (w *Wave) runLiftBlock(b int) {
	e := w.e
	nPat := e.nPatterns
	lo := b * e.blockSize
	hi := lo + e.blockSize
	if hi > nPat {
		hi = nPat
	}
	fA, fC, fG, fT := e.freqs[0], e.freqs[1], e.freqs[2], e.freqs[3]
	for k := range w.path {
		p := w.cleanEdge[k]
		vc := w.cleanCond[k]
		v0 := vc[lo:hi]
		v1 := vc[nPat+lo : nPat+hi]
		v2 := vc[2*nPat+lo : 2*nPat+hi]
		v3 := vc[3*nPat+lo : 3*nPat+hi]
		base := k * nStates * nPat
		o0 := w.outer[base+lo : base+hi]
		o1 := w.outer[base+nPat+lo : base+nPat+hi]
		o2 := w.outer[base+2*nPat+lo : base+2*nPat+hi]
		o3 := w.outer[base+3*nPat+lo : base+3*nPat+hi]
		n := len(o0)
		o1, o2, o3 = o1[:n], o2[:n], o3[:n]
		v0, v1, v2, v3 = v0[:n], v1[:n], v2[:n], v3[:n]
		for i := range o0 {
			o0[i], o1[i], o2[i], o3[i] = p.Apply(fA, fC, fG, fT, v0[i], v1[i], v2[i], v3[i])
		}
	}
}

// Eval computes log P(D|G̃) for every candidate of the bound round as one
// fused (proposal × pattern-block) grid. trees is indexed by output slot:
// a nil entry (the current state's slot, or a candidate whose resimulation
// failed) is skipped and out's entry left untouched; every non-nil tree
// must satisfy the round's validity contract (see the package comment
// above). Results are written to out[slot] and are bit-identical to
// LogLikelihoodDelta on the same trees.
//
//mpcgs:hotpath
func (w *Wave) Eval(trees []*gtree.Tree, out []float64) {
	if !w.bound {
		panic("felsen: Wave.Eval without BindRound")
	}
	e := w.e
	w.props = w.props[:0]
	for slot, t := range trees {
		if t == nil {
			continue
		}
		w.props = append(w.props, waveProp{t: t, slot: slot})
		pr := &w.props[len(w.props)-1]
		tn := &t.Nodes[w.phi]
		pr.tm0 = e.model.CoeffsAt(tn.Age - t.Nodes[tn.Child[0]].Age)
		pr.tm1 = e.model.CoeffsAt(tn.Age - t.Nodes[tn.Child[1]].Age)
		pn := &t.Nodes[w.parent]
		pr.pclean = pn.Child[0]
		if pr.pclean == w.phi {
			pr.pclean = pn.Child[1]
		}
		pr.pmPhi = e.model.CoeffsAt(pn.Age - tn.Age)
		pr.pmClean = e.model.CoeffsAt(pn.Age - t.Nodes[pr.pclean].Age)
		if !w.rootCase {
			pr.am = e.model.CoeffsAt(w.c.base.Nodes[w.path[0]].Age - pn.Age)
		}
		// Resolve the clean rows the cells will stream — the target's two
		// children and the parent's clean child — once per proposal, so the
		// cell kernel never branches on tip-ness.
		pr.tlc, pr.tls = w.rowOf(tn.Child[0])
		pr.trc, pr.trs = w.rowOf(tn.Child[1])
		pr.cvc, pr.cvs = w.rowOf(pr.pclean)
	}
	nLive := len(w.props)
	if nLive == 0 {
		return
	}
	nPat := e.nPatterns
	bs := e.blockSize
	nBlocks := (nPat + bs - 1) / bs
	if need := nBlocks * nLive; cap(w.sums) < need {
		w.sums = make([]float64, need) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
	} else {
		w.sums = w.sums[:nBlocks*nLive]
	}
	// One grid over all cells, block-major (cell = b·nLive + li): an
	// affinity segment covers whole pattern blocks across all proposals,
	// so a worker streams the same cached child rows and outer lanes for
	// every candidate before moving on. Cells write disjoint sums slots
	// and the reduction below is fixed-order, so the schedule never
	// affects results.
	nCells := nBlocks * nLive
	if nCells > 1 && e.dev.Workers() > 1 && nLive*(2+len(w.path))*nPat >= blockParallelMinWork {
		e.dev.LaunchAffine(nCells, w.cellKernel)
	} else {
		for cell := 0; cell < nCells; cell++ {
			w.runCell(cell)
		}
	}
	// Per-proposal fixed-order reduction over its block partials — the
	// same block order the per-candidate path sums, so totals match bit
	// for bit.
	for li := range w.props {
		total := 0.0
		for b := 0; b < nBlocks; b++ {
			total += w.sums[b*nLive+li]
		}
		out[w.props[li].slot] = total
	}
}

// runCell evaluates one (pattern block, proposal) grid cell: the
// candidate's fused target-and-parent pass, root-path walk against the
// shared outer lanes, and the block's root-contraction partial into
// sums[b*nLive+li]. The per-node arithmetic and operation order replicate
// runBlock exactly (see the bit-identity note in the package comment).
//
//mpcgs:hotpath
func (w *Wave) runCell(cell int) {
	e := w.e
	nLive := len(w.props)
	li := cell % nLive
	b := cell / nLive
	pr := &w.props[li]
	nPat := e.nPatterns
	bs := e.blockSize
	lo := b * bs
	hi := lo + bs
	if hi > nPat {
		hi = nPat
	}
	n := hi - lo
	ws := e.wavePool.Get().(*waveScratch)
	// The working row: the current node's lanes for this block,
	// overwritten in place as the walk climbs (each iteration loads all
	// four states before storing).
	s0 := ws.cond[0*bs : 0*bs+n]
	s1 := ws.cond[1*bs : 1*bs+n]
	s2 := ws.cond[2*bs : 2*bs+n]
	s3 := ws.cond[3*bs : 3*bs+n]
	ss := ws.scale[:n]

	// Fused target-and-parent pass: the target row (both children clean)
	// is carried per pattern in registers straight into the parent's edge
	// products, so the neighbourhood costs one loop and only the parent
	// row is ever stored. Each node's arithmetic is runBlock's, with the
	// same edge↔child pairing; the two edge-product factors and the two
	// scale summands commute bit-exactly, so evaluating the φ side first
	// is the per-candidate kernel's result regardless of Child-array order.
	tl := laneSlice(pr.tlc, pr.tls, nPat, lo, hi)
	tr := laneSlice(pr.trc, pr.trs, nPat, lo, hi)
	cv := laneSlice(pr.cvc, pr.cvs, nPat, lo, hi)
	waveNeighbourhood(&e.freqs, pr, tl, tr, cv, laneView{s0, s1, s2, s3, ss})

	// Root path: one dirty-side edge product per node against the shared
	// outer lane, then the same rescale/scale sequence as runBlock.
	fA, fC, fG, fT := e.freqs[0], e.freqs[1], e.freqs[2], e.freqs[3]
	for k := range w.path {
		p := pr.am
		if k > 0 {
			p = w.chainEdge[k]
		}
		base := k * nStates * nPat
		o0 := w.outer[base+lo : base+hi]
		o1 := w.outer[base+nPat+lo : base+nPat+hi]
		o2 := w.outer[base+2*nPat+lo : base+2*nPat+hi]
		o3 := w.outer[base+3*nPat+lo : base+3*nPat+hi]
		cs := w.cleanScale[k][lo:hi]
		o0 = o0[:n]
		o1, o2, o3, cs = o1[:n], o2[:n], o3[:n], cs[:n]
		for i := range s0 {
			a0, a1, a2, a3 := p.Apply(fA, fC, fG, fT, s0[i], s1[i], s2[i], s3[i])
			w0, w1, w2, w3 := a0*o0[i], a1*o1[i], a2*o2[i], a3*o3[i]
			sc := ss[i] + cs[i]
			if w0 < rescaleThreshold && w1 < rescaleThreshold && w2 < rescaleThreshold && w3 < rescaleThreshold {
				w0, w1, w2, w3, sc = rescale(w0, w1, w2, w3, sc)
			}
			s0[i] = w0
			s1[i] = w1
			s2[i] = w2
			s3[i] = w3
			ss[i] = sc
		}
	}

	// Root contraction: the working row now holds the root (the parent
	// itself in the root case).
	w.sums[cell] = rootLogLik(&e.freqs, laneView{s0, s1, s2, s3, ss}, e.patCount[lo:hi])
	e.wavePool.Put(ws)
}

// laneView is one conditional row's per-state lanes plus its scale lane,
// already sliced to a cell's pattern range.
type laneView struct {
	l0, l1, l2, l3, ls []float64
}

// laneSlice views a pre-resolved row's lanes over [lo, hi).
func laneSlice(cond, scale []float64, nPat, lo, hi int) laneView {
	return laneView{
		cond[lo:hi],
		cond[nPat+lo : nPat+hi],
		cond[2*nPat+lo : 2*nPat+hi],
		cond[3*nPat+lo : 3*nPat+hi],
		scale[lo:hi],
	}
}

// waveNeighbourhood fuses the resimulated neighbourhood's two node
// evaluations over a cell's pattern range: the target row — computed from
// its children l and r (the candidate's Child-array order) — is carried
// per pattern in registers straight into the parent's edge products
// against the parent's clean-child row c, and only the parent row is
// stored, into o. Each node's arithmetic is exactly runBlock's inner
// loop (children's edge products, rescale test, scale add); at the
// parent, the φ-side factor is evaluated first regardless of Child-array
// order, which is bit-identical because the two factors and the two
// scale summands commute.
//
//mpcgs:hotpath
func waveNeighbourhood(freqs *[4]float64, pr *waveProp, l, r, c, o laneView) {
	fA, fC, fG, fT := freqs[0], freqs[1], freqs[2], freqs[3]
	tm0, tm1, pmPhi, pmClean := pr.tm0, pr.tm1, pr.pmPhi, pr.pmClean
	o0 := o.l0
	n := len(o0)
	o1, o2, o3, os := o.l1[:n], o.l2[:n], o.l3[:n], o.ls[:n]
	l0, l1, l2, l3, ls := l.l0[:n], l.l1[:n], l.l2[:n], l.l3[:n], l.ls[:n]
	r0, r1, r2, r3, rs := r.l0[:n], r.l1[:n], r.l2[:n], r.l3[:n], r.ls[:n]
	c0, c1, c2, c3, cs := c.l0[:n], c.l1[:n], c.l2[:n], c.l3[:n], c.ls[:n]
	for i := range o0 {
		a0, a1, a2, a3 := tm0.Apply(fA, fC, fG, fT, l0[i], l1[i], l2[i], l3[i])
		b0, b1, b2, b3 := tm1.Apply(fA, fC, fG, fT, r0[i], r1[i], r2[i], r3[i])
		t0, t1, t2, t3 := a0*b0, a1*b1, a2*b2, a3*b3
		tsc := ls[i] + rs[i]
		if t0 < rescaleThreshold && t1 < rescaleThreshold && t2 < rescaleThreshold && t3 < rescaleThreshold {
			t0, t1, t2, t3, tsc = rescale(t0, t1, t2, t3, tsc)
		}
		a0, a1, a2, a3 = pmPhi.Apply(fA, fC, fG, fT, t0, t1, t2, t3)
		b0, b1, b2, b3 = pmClean.Apply(fA, fC, fG, fT, c0[i], c1[i], c2[i], c3[i])
		w0, w1, w2, w3 := a0*b0, a1*b1, a2*b2, a3*b3
		sc := tsc + cs[i]
		if w0 < rescaleThreshold && w1 < rescaleThreshold && w2 < rescaleThreshold && w3 < rescaleThreshold {
			w0, w1, w2, w3, sc = rescale(w0, w1, w2, w3, sc)
		}
		o0[i] = w0
		o1[i] = w1
		o2[i] = w2
		o3[i] = w3
		os[i] = sc
	}
}
