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
// # Tip tables
//
// A tip's conditionals are one of only five vectors per pattern (the
// unit vector of A, C, G or T, or all ones for missing data), so an edge
// applied to a tip has only five possible results. Eval tabulates them
// once per proposal for each of the neighbourhood's clean operands that
// is a tip (the target's two children and the parent's clean child: five
// Apply calls each), and the cells gather tab[code] per pattern instead
// of applying the edge; BindRound does the same for a tip hanging off the
// root path. On 12-taxon genealogies about 1.7 of a cell's ~5.9 edge
// products act on a tip. The table is bit-exact: it is computed by the
// same Coeffs.Apply on the same values (tipVectors) a tip's lanes would
// hold, and Apply is a pure function of its arguments, so tab[code] is
// the exact result the per-pattern call would return. runBlock reads
// tips through tables the same way, through the same combine kernel, so
// no pattern kernel ever materializes a tip's lanes.
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
// shared rescale helper, scale add) is runBlock's — both run each node
// through the same combine kernel — the
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
	// tl/tr/cv are the neighbourhood's three clean operands — the
	// target's two children and the parent's clean child — resolved once
	// per proposal, so the grid cells only slice them. A tip operand's
	// table, its consuming edge (tm0, tm1 or pmClean) applied to the five
	// tip vectors, lives in tabs.
	tl, tr, cv operand
	tabs       [3]tipTable
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
	// is outer[(k*nStates+x)*nPatterns:][:nPatterns]. clean[k] is
	// cleanCh[k] as an operand of cleanEdge[k] (a cache row, or a tip with
	// its table in cleanTabs[k]), resolved once per round.
	outer     []float64
	clean     []operand
	cleanTabs []tipTable
	bound     bool

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

// operand resolves a clean node as the operand of edge p: a tip through
// p's tip table, written to tab, and an interior node through its cache
// row — the same sources the per-candidate kernel reads clean rows from.
func (w *Wave) operand(tab *tipTable, node int, p subst.Coeffs) operand {
	e := w.e
	nTips := len(e.seqs)
	if node < nTips {
		*tab = tipTableOf(&e.freqs, p)
		return e.tipOperand(node, tab)
	}
	nPat := e.nPatterns
	r := node - nTips
	return operand{cond: w.c.cond[r*nStates*nPat : (r+1)*nStates*nPat], scale: w.c.scale[r*nPat : (r+1)*nPat]}
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
	if cap(w.clean) < depth {
		w.clean = make([]operand, depth)      //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
		w.cleanTabs = make([]tipTable, depth) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
	} else {
		w.clean = w.clean[:depth]
		w.cleanTabs = w.cleanTabs[:depth]
	}
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
		w.clean[k] = w.operand(&w.cleanTabs[k], clean, w.cleanEdge[k])
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
// Coeffs.Apply runBlock calls, or for a tip clean child gathered from the
// same tip table runBlock would build — the lift must produce the exact
// bits the per-candidate kernel would.
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
		base := k * nStates * nPat
		o0 := w.outer[base+lo : base+hi]
		o1 := w.outer[base+nPat+lo : base+nPat+hi]
		o2 := w.outer[base+2*nPat+lo : base+2*nPat+hi]
		o3 := w.outer[base+3*nPat+lo : base+3*nPat+hi]
		op := &w.clean[k]
		if op.codes != nil {
			gatherTip(op.tab, op.codes[lo:hi], o0, o1, o2, o3)
			continue
		}
		p := w.cleanEdge[k]
		vc := op.cond
		v0 := vc[lo:hi]
		v1 := vc[nPat+lo : nPat+hi]
		v2 := vc[2*nPat+lo : 2*nPat+hi]
		v3 := vc[3*nPat+lo : 3*nPat+hi]
		n := len(o0)
		o1, o2, o3 = o1[:n], o2[:n], o3[:n]
		v0, v1, v2, v3 = v0[:n], v1[:n], v2[:n], v3[:n]
		for i := range o0 {
			o0[i], o1[i], o2[i], o3[i] = p.Apply(fA, fC, fG, fT, v0[i], v1[i], v2[i], v3[i])
		}
	}
}

// gatherTip writes a tip's edge products over a pattern range into the
// lanes o0..o3: tab's row for each pattern's code.
//
//mpcgs:hotpath
func gatherTip(tab *tipTable, codes []uint8, o0, o1, o2, o3 []float64) {
	n := len(codes)
	o0, o1, o2, o3 = o0[:n], o1[:n], o2[:n], o3[:n]
	for i, c := range codes {
		t := &tab[c]
		o0[i], o1[i], o2[i], o3[i] = t[0], t[1], t[2], t[3]
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
	// Collect the live candidates before resolving them: the operands
	// point into their waveProp's tip tables, which must not move.
	w.props = w.props[:0]
	for slot, t := range trees {
		if t != nil {
			w.props = append(w.props, waveProp{t: t, slot: slot})
		}
	}
	for li := range w.props {
		pr := &w.props[li]
		t := pr.t
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
		// Resolve the clean operands the cells will stream — the target's
		// two children and the parent's clean child — once per proposal,
		// tabulating the consuming edge on the tip vectors for tips.
		pr.tl = w.operand(&pr.tabs[0], tn.Child[0], pr.tm0)
		pr.tr = w.operand(&pr.tabs[1], tn.Child[1], pr.tm1)
		pr.cv = w.operand(&pr.tabs[2], pr.pclean, pr.pmClean)
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

	// The neighbourhood: the target row from its two clean children, then
	// in place the parent row from the target row and the parent's clean
	// child. Each is one combine, the node kernel runBlock runs, with the
	// same edge↔child pairing and tip-table gathers for tip children; the
	// two edge-product factors and the two scale summands commute
	// bit-exactly, so putting the φ side first at the parent is the
	// per-candidate kernel's result regardless of Child-array order.
	o := laneView{l0: s0, l1: s1, l2: s2, l3: s3, ls: ss}
	combine(&e.freqs, pr.tm0, pr.tl.view(nPat, lo, hi), pr.tm1, pr.tr.view(nPat, lo, hi), o)
	combine(&e.freqs, pr.pmPhi, o, pr.pmClean, pr.cv.view(nPat, lo, hi), o)

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
		cs := w.clean[k].scale[lo:hi]
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
	w.sums[cell] = rootLogLik(&e.freqs, o, e.patCount[lo:hi])
	e.wavePool.Put(ws)
}

// laneView is one conditional row's per-state lanes plus its scale lane,
// already sliced to a kernel's pattern range. A tip operand has no state
// lanes; it carries its pattern codes over the range and its edge's tip
// table instead (codes is nil for every other row).
type laneView struct {
	l0, l1, l2, l3, ls []float64
	codes              []uint8
	tab                *tipTable
}

// laneSlice views a pre-resolved row's lanes over [lo, hi).
func laneSlice(cond, scale []float64, nPat, lo, hi int) laneView {
	return laneView{
		l0: cond[lo:hi],
		l1: cond[nPat+lo : nPat+hi],
		l2: cond[2*nPat+lo : 2*nPat+hi],
		l3: cond[3*nPat+lo : 3*nPat+hi],
		ls: scale[lo:hi],
	}
}
