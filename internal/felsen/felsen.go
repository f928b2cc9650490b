// Package felsen computes the data likelihood P(D|G) of a genealogy by
// Felsenstein's pruning algorithm (paper §2.4, Eq. 19-22): a post-order
// traversal propagates per-nucleotide conditional likelihoods from the
// tips to the root independently at every base-pair position, and the
// per-site log-likelihoods add.
//
// The device-parallel path mirrors the paper's data likelihood kernel
// (§5.2.2): one thread per site, each performing the full recursive
// descent, followed by an additive reduction of the per-site logs. The
// serial path is the reference implementation and the baseline sampler's
// evaluator.
package felsen

import (
	"fmt"
	"math"
	"sync"

	"mpcgs/internal/bitseq"
	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/logspace"
	"mpcgs/internal/phylip"
	"mpcgs/internal/subst"
)

// rescaleThreshold triggers per-node renormalization of conditional
// likelihoods: once the largest entry falls below it, the vector is scaled
// up and the log-scale accumulated, preventing underflow on deep trees
// (paper §5.3).
const rescaleThreshold = 1e-150

// Evaluator computes log P(D|G) for genealogies over a fixed alignment.
// It is safe for concurrent use: per-call scratch comes from an internal
// pool, so parallel proposal threads can evaluate different trees at once.
type Evaluator struct {
	model     subst.Model
	freqs     [4]float64
	seqs      []*bitseq.Seq
	nSites    int
	dev       *device.Device
	pool      sync.Pool // *scratch
	blockPool sync.Pool // *blockScratch
	deltaPool sync.Pool // *deltaScratch
	wavePool  sync.Pool // *waveScratch

	// Site-pattern compression for the delta path (see delta.go): distinct
	// alignment columns, their multiplicities, and per-tip base codes
	// (0..3, 4 = missing) — the immutable data the paper parks in constant
	// memory (§4.4). A tip's conditionals are never materialized: the
	// pattern kernels read a tip through its codes and a tip table of the
	// edge above it (see tipTable). zeroScale is the all-zero rescaling
	// lane every tip shares.
	nPatterns int
	patCount  []float64
	patBase   [][]uint8
	zeroScale []float64

	// blockSize is the pattern-block width of the delta kernel (see
	// delta.go). It participates in the floating-point summation order, so
	// it is fixed at construction (DefaultBlockSize) unless overridden by
	// SetBlockSize before any evaluation.
	blockSize int
}

type scratch struct {
	mats  []subst.Matrix // per-node transition matrix, indexed by child node
	order []int          // post-order node visit sequence for the tree under evaluation
}

// blockScratch is the per-block working memory of the iterative site
// kernel: conditional likelihood vectors for every node, reused across
// the sites of the block (the role shared memory plays in the paper's
// kernels).
type blockScratch struct {
	partials [][4]float64
	scale    []float64
}

// New builds an evaluator for the alignment under the given substitution
// model, executing parallel site kernels on dev.
func New(model subst.Model, aln *phylip.Alignment, dev *device.Device) (*Evaluator, error) {
	if err := aln.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("felsen: nil model")
	}
	if dev == nil {
		dev = device.Serial()
	}
	e := &Evaluator{
		model:     model,
		freqs:     model.Freqs(),
		seqs:      aln.Seqs,
		nSites:    aln.SeqLen(),
		dev:       dev,
		blockSize: DefaultBlockSize,
	}
	nNodes := 2*len(aln.Seqs) - 1
	e.pool.New = func() any {
		return &scratch{
			mats:  make([]subst.Matrix, nNodes),
			order: make([]int, 0, nNodes),
		}
	}
	e.blockPool.New = func() any {
		return &blockScratch{
			partials: make([][4]float64, nNodes),
			scale:    make([]float64, nNodes),
		}
	}
	e.deltaPool.New = func() any {
		ds := &deltaScratch{
			dirty:  make([]bool, nNodes),
			order:  make([]int, 0, nNodes),
			pos:    make([]int, nNodes),
			coeffs: make([]subst.Coeffs, nNodes),
			tabs:   make([]tipTable, len(aln.Seqs)),
		}
		// The block kernel closure is built once per pooled scratch (cold
		// path) and rebound per evaluation through the scratch's fields, so
		// launching blocks allocates nothing on the hot path.
		ds.kernel = ds.runBlock
		return ds
	}
	e.wavePool.New = func() any {
		// Sized at Get time so a SetBlockSize before the first evaluation
		// is honored; one working row (four state lanes plus the scale
		// lane) per concurrent wave cell.
		return &waveScratch{
			cond:  make([]float64, nStates*e.blockSize),
			scale: make([]float64, e.blockSize),
		}
	}
	e.compressPatterns()
	return e, nil
}

// compressPatterns deduplicates alignment columns into weighted site
// patterns: the delta path evaluates each distinct column once and sums
// the per-pattern log-likelihoods with their multiplicities — an exact
// reassociation of the sum over sites.
func (e *Evaluator) compressPatterns() {
	nSeqs := len(e.seqs)
	e.patBase = make([][]uint8, nSeqs)
	for i := range e.patBase {
		e.patBase[i] = make([]uint8, 0, e.nSites)
	}
	index := make(map[string]int, e.nSites)
	key := make([]byte, nSeqs)
	for site := 0; site < e.nSites; site++ {
		for i, sq := range e.seqs {
			if b, known := sq.At(site); known {
				key[i] = uint8(b)
			} else {
				key[i] = 4
			}
		}
		if pat, ok := index[string(key)]; ok {
			e.patCount[pat]++
			continue
		}
		index[string(key)] = e.nPatterns
		e.nPatterns++
		e.patCount = append(e.patCount, 1)
		for i := range e.patBase {
			e.patBase[i] = append(e.patBase[i], key[i])
		}
	}
	e.zeroScale = make([]float64, e.nPatterns)
}

// tipVectors are a tip's conditional likelihoods per base code: the unit
// vector of the observed base for codes 0..3 (A, C, G, T), all ones for
// code 4 (missing), as the site kernels set them.
var tipVectors = [nTipCodes][nStates]float64{
	{1, 0, 0, 0},
	{0, 1, 0, 0},
	{0, 0, 1, 0},
	{0, 0, 0, 1},
	{1, 1, 1, 1},
}

// nTipCodes is the number of distinct tip vectors: four bases plus missing.
const nTipCodes = 5

// tipTable is one edge's product with every tip vector: row c holds
// P·tipVectors[c]. A tip's conditionals at a pattern are
// tipVectors[code], so tab[code] is the edge product on the tip at that
// pattern, computed by the same Coeffs.Apply on the same values — the
// same bits as applying the edge per pattern, for five Apply calls per
// edge instead of one per pattern.
type tipTable [nTipCodes][nStates]float64

// tipTableOf tabulates edge p on the five tip vectors.
func tipTableOf(freqs *[4]float64, p subst.Coeffs) tipTable {
	var tab tipTable
	for c := range tipVectors {
		u := &tipVectors[c]
		tab[c][0], tab[c][1], tab[c][2], tab[c][3] = p.Apply(freqs[0], freqs[1], freqs[2], freqs[3], u[0], u[1], u[2], u[3])
	}
	return tab
}

// NSites returns the number of base-pair positions.
func (e *Evaluator) NSites() int { return e.nSites }

// NPatterns returns the number of distinct site patterns the alignment
// compresses to: the length of every conditional lane in the delta path.
func (e *Evaluator) NPatterns() int { return e.nPatterns }

// SetBlockSize overrides the delta kernel's pattern-block width
// (DefaultBlockSize). The block partition fixes the floating-point
// summation order of the per-pattern log-likelihoods, so two evaluators
// agree bit-for-bit exactly when their block sizes match: call this only
// before the first evaluation, with the same value on every run that must
// reproduce (checkpoint/resume included). Results for any block size
// agree to floating-point roundoff.
func (e *Evaluator) SetBlockSize(n int) {
	if n <= 0 {
		panic("felsen: SetBlockSize requires a positive block size")
	}
	e.blockSize = n
}

// NSeqs returns the number of sequences.
func (e *Evaluator) NSeqs() int { return len(e.seqs) }

// Model returns the substitution model in use.
func (e *Evaluator) Model() subst.Model { return e.model }

// CheckTree verifies that a genealogy is structurally compatible with the
// alignment (tip count matches; tip i carries sequence i).
func (e *Evaluator) CheckTree(t *gtree.Tree) error {
	if t.NTips() != len(e.seqs) {
		return fmt.Errorf("felsen: tree has %d tips, alignment has %d sequences", t.NTips(), len(e.seqs))
	}
	return t.Validate()
}

// prepare fills per-node transition matrices and the post-order visit
// sequence for the tree. Both depend only on tree shape and branch
// lengths, so they are computed once per evaluation and shared by every
// site thread.
func (e *Evaluator) prepare(t *gtree.Tree, s *scratch) {
	for i := range t.Nodes {
		if i == t.Root {
			continue
		}
		e.model.TransitionInto(t.BranchLength(i), &s.mats[i])
	}
	s.order = s.order[:0]
	t.PostOrder(func(i int) { s.order = append(s.order, i) })
}

// LogLikelihood returns log P(D|G) with sites evaluated in parallel on the
// device and combined by an additive reduction, the structure of the
// paper's data likelihood kernel. Sites are processed in per-worker
// blocks so the conditional-likelihood buffers are allocated once per
// block rather than once per site.
func (e *Evaluator) LogLikelihood(t *gtree.Tree) float64 {
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	e.prepare(t, s)
	siteLogs := make([]float64, e.nSites)
	e.dev.LaunchBlocks(e.nSites, func(lo, hi int) {
		b := e.blockPool.Get().(*blockScratch)
		defer e.blockPool.Put(b)
		for site := lo; site < hi; site++ {
			siteLogs[site] = e.siteLogLikelihoodIter(t, s, b, site)
		}
	})
	return e.dev.ReduceSum(siteLogs)
}

// LogLikelihoodSerial returns log P(D|G) on the calling goroutine with no
// device parallelism: the evaluator used by the serial baseline sampler.
func (e *Evaluator) LogLikelihoodSerial(t *gtree.Tree) float64 {
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	e.prepare(t, s)
	b := e.blockPool.Get().(*blockScratch)
	defer e.blockPool.Put(b)
	total := 0.0
	for site := 0; site < e.nSites; site++ {
		total += e.siteLogLikelihoodIter(t, s, b, site)
	}
	return total
}

// siteLogLikelihoodIter is the iterative form of the pruning kernel: it
// walks the precomputed post-order sequence with flat per-block buffers,
// avoiding per-site recursion and stack traffic. Numerically it performs
// the identical operations to siteLogLikelihood in the identical order.
func (e *Evaluator) siteLogLikelihoodIter(t *gtree.Tree, s *scratch, b *blockScratch, site int) float64 {
	for _, node := range s.order {
		nd := &t.Nodes[node]
		if nd.IsTip() {
			if base, known := e.seqs[node].At(site); known {
				b.partials[node] = [4]float64{}
				b.partials[node][base] = 1
			} else {
				b.partials[node] = [4]float64{1, 1, 1, 1}
			}
			b.scale[node] = 0
			continue
		}
		c0, c1 := nd.Child[0], nd.Child[1]
		l, r := &b.partials[c0], &b.partials[c1]
		m0, m1 := &s.mats[c0], &s.mats[c1]
		out := &b.partials[node]
		maxv := 0.0
		for x := 0; x < 4; x++ {
			s0 := m0[x][0]*l[0] + m0[x][1]*l[1] + m0[x][2]*l[2] + m0[x][3]*l[3]
			s1 := m1[x][0]*r[0] + m1[x][1]*r[1] + m1[x][2]*r[2] + m1[x][3]*r[3]
			out[x] = s0 * s1
			if out[x] > maxv {
				maxv = out[x]
			}
		}
		b.scale[node] = b.scale[c0] + b.scale[c1]
		if maxv < rescaleThreshold && maxv > 0 {
			inv := 1 / maxv
			for x := 0; x < 4; x++ {
				out[x] *= inv
			}
			b.scale[node] += math.Log(maxv)
		}
	}
	root := &b.partials[t.Root]
	siteL := e.freqs[0]*root[0] + e.freqs[1]*root[1] + e.freqs[2]*root[2] + e.freqs[3]*root[3]
	if siteL <= 0 {
		return logspace.NegInf
	}
	return math.Log(siteL) + b.scale[t.Root]
}
