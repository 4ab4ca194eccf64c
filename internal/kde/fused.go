package kde

import (
	"kdesel/internal/kernel"
	"kdesel/internal/parallel"
	"kdesel/internal/query"
)

// This file holds the fused columnar evaluation paths: when every dimension
// uses the Gaussian kernel, the estimate and gradient maps run over the
// structure-of-arrays sample mirror (one contiguous column per dimension)
// with the per-query scalings 1/(√2·h_j), 1/(√(2π)·h_j²), 1/(2·h_j²)
// hoisted out of the inner loops (kernel.GaussianConsts). Loops stream one
// dimension's column tile at a time, so a chunk's working set (ChunkSize
// rows · 8 B) stays L1-resident while a whole query tile is scored against
// it — GEMM-style Q×N blocking in the batch path.
//
// Determinism: the fused paths keep the exact reduction structure of the
// generic row-major code — the same fixed chunk grid, per-row products
// formed in ascending dimension order (with the same zero short-circuit),
// chunk partial sums accumulated in row order, partials combined in
// chunk-index order. Serial and parallel fused execution are therefore
// bit-identical, and the batch evaluators are bit-identical to their
// per-query fused counterparts. Only the generic path differs — by the
// ≤1-ulp re-association of hoisting the bandwidth division — which the
// cross-layout equivalence tests bound.

const (
	// qcStride is the per-dimension slot count of the hoisted query
	// constants: query lo, query hi, and the three GaussianConsts.
	qcStride = 5
	// batchQTile is the query-tile width of the batched Q×N blocking:
	// 8 accumulator tiles of ChunkSize rows occupy 16 KiB, so a sample
	// column tile (2 KiB) plus the accumulators stay L1-resident.
	batchQTile = 8
	// gradTileRows is the row-tile height of the fused gradient: per-tile
	// mass and derivative planes (2·d·gradTileRows values) stay L1-resident
	// up to d≈16 while amortizing the per-dimension loop overhead.
	gradTileRows = 64
)

// fusedScratch recycles the fused paths' working buffers. qc holds hoisted
// per-(query,dimension) constants; acc holds product-accumulator tiles.
// qc32/acc32 are their float32 counterparts for the compressed tiers
// (fused32.go). A dedicated pool (rather than the chunk-partial BufferPool)
// keeps the recurring sizes from evicting each other.
type fusedScratch struct {
	qc    []float64
	acc   []float64
	qc32  []float32
	acc32 []float32
}

func (s *fusedScratch) qcBuf(n int) []float64 {
	if cap(s.qc) < n {
		s.qc = make([]float64, n)
	}
	return s.qc[:n]
}

func (s *fusedScratch) accBuf(n int) []float64 {
	if cap(s.acc) < n {
		s.acc = make([]float64, n)
	}
	return s.acc[:n]
}

func (e *Estimator) getFused() *fusedScratch {
	if s, ok := e.fusedPool.Get().(*fusedScratch); ok {
		return s
	}
	return &fusedScratch{}
}

func (e *Estimator) putFused(s *fusedScratch) { e.fusedPool.Put(s) }

// fusedOK reports whether the fused columnar Gaussian path applies: a
// columnar mirror is loaded, every dimension resolves to the Gaussian
// kernel, and tests have not forced the generic path.
func (e *Estimator) fusedOK() bool {
	if e.forceGeneric || len(e.cols) == 0 {
		return false
	}
	if _, ok := e.kern.(kernel.Gaussian); !ok {
		return false
	}
	for _, k := range e.kerns {
		if k == nil {
			continue
		}
		if _, ok := k.(kernel.Gaussian); !ok {
			return false
		}
	}
	return true
}

// rebuildColumns refreshes the columnar mirror from the row-major buffer.
func (e *Estimator) rebuildColumns() {
	s := len(e.data) / e.d
	if cap(e.cols) < len(e.data) {
		e.cols = make([]float64, len(e.data))
	}
	e.cols = e.cols[:len(e.data)]
	for i := 0; i < s; i++ {
		row := e.data[i*e.d : (i+1)*e.d]
		for j, v := range row {
			e.cols[j*s+i] = v
		}
	}
}

// col returns dimension j's column slice of the mirror.
func (e *Estimator) col(j int) []float64 {
	s := e.Size()
	return e.cols[j*s : (j+1)*s]
}

// queryConsts hoists query q's per-dimension constants into qc
// (length d·qcStride): [lo, hi, 1/(√2·h), 1/(√(2π)·h²), 1/(2·h²)] per
// dimension.
func (e *Estimator) queryConsts(q query.Range, qc []float64) {
	for j := 0; j < e.d; j++ {
		inv, c1, c2 := kernel.GaussianConsts(e.h[j])
		o := j * qcStride
		qc[o], qc[o+1], qc[o+2], qc[o+3], qc[o+4] = q.Lo[j], q.Hi[j], inv, c1, c2
	}
}

// fusedPointMass evaluates one row's eq. 13 mass with the fused arithmetic:
// the same scaled-mass expression and the same ascending-dimension product
// with zero short-circuit as fusedMassChunk, so the result is bit-identical
// to that row's entry in a fused Contributions buffer.
func (e *Estimator) fusedPointMass(row []float64, q query.Range) float64 {
	fast := e.fastErf()
	m := 0.0
	for j := 0; j < e.d; j++ {
		inv, _, _ := kernel.GaussianConsts(e.h[j])
		mass := kernel.GaussianMassScaled(q.Lo[j], q.Hi[j], row[j], inv, fast)
		if j == 0 {
			m = mass
		} else if m != 0 {
			m *= mass
		}
	}
	return m
}

// fusedMassChunk is the fused eq. 13 map over sample rows [lo, hi): it
// fills acc[:hi-lo] with the per-row probability masses (ascending-dimension
// products, zero rows short-circuited) and returns their row-order sum.
// When out is non-nil, out[lo:hi] additionally receives the per-row masses
// (the Contributions buffer).
func (e *Estimator) fusedMassChunk(qc []float64, lo, hi int, acc, out []float64, fast bool) float64 {
	n := hi - lo
	acc = acc[:n]
	for j := 0; j < e.d; j++ {
		col := e.col(j)[lo:hi]
		o := j * qcStride
		if j == 0 {
			kernel.GaussianMassFill(acc, col, qc[o], qc[o+1], qc[o+2], fast)
		} else {
			kernel.GaussianMassMul(acc, col, qc[o], qc[o+1], qc[o+2], fast)
		}
	}
	if out != nil {
		copy(out[lo:hi], acc)
	}
	sum := 0.0
	for _, v := range acc {
		sum += v
	}
	return sum
}

// fusedSelectivity is the fused counterpart of Selectivity (and, with a
// non-nil out, of Contributions). Callers have validated the query.
func (e *Estimator) fusedSelectivity(q query.Range, out []float64) float64 {
	s := e.Size()
	fast := e.fastErf()
	fs := e.getFused()
	qc := fs.qcBuf(e.d * qcStride)
	e.queryConsts(q, qc)
	total := 0.0
	if e.pool.Workers() <= 1 {
		acc := fs.accBuf(parallel.ChunkSize)
		for c, nc := 0, parallel.Chunks(s); c < nc; c++ {
			lo, hi := parallel.ChunkBounds(c, s)
			total += e.fusedMassChunk(qc, lo, hi, acc, out, fast)
		}
	} else {
		nc := parallel.Chunks(s)
		partials := e.bufs.Get(nc)
		e.pool.Run(s, func(c, lo, hi int) {
			ws := e.getFused()
			partials[c] = e.fusedMassChunk(qc, lo, hi, ws.accBuf(parallel.ChunkSize), out, fast)
			e.putFused(ws)
		})
		for _, v := range partials {
			total += v
		}
		e.bufs.Put(partials)
	}
	e.putFused(fs)
	return total / float64(s)
}

// fusedGradChunk is the fused eq. 17 map over sample rows [lo, hi): it
// accumulates the per-dimension gradient terms into pgrad (length d) in row
// order and returns the chunk's mass partial sum. Row tiles of gradTileRows
// get their mass and derivative planes filled one dimension at a time
// (columnar), then each row's leave-one-out products are combined with the
// same suffix-descending/prefix-ascending sweep as the generic gradPoint.
// SelectivityGradient and GradientBatch both run their chunks through this
// one routine, which is what keeps them bit-identical to each other.
func (e *Estimator) fusedGradChunk(qc []float64, lo, hi int, scr *gradScratch, pgrad []float64, fast bool) float64 {
	d := e.d
	fm, fg, suffix := scr.fmasses, scr.fgrads, scr.suffix
	sum := 0.0
	for base := lo; base < hi; base += gradTileRows {
		n := min(gradTileRows, hi-base)
		for j := 0; j < d; j++ {
			col := e.col(j)[base : base+n]
			o := j * qcStride
			kernel.GaussianMassGradFill(
				fm[j*gradTileRows:j*gradTileRows+n],
				fg[j*gradTileRows:j*gradTileRows+n],
				col, qc[o], qc[o+1], qc[o+2], qc[o+3], qc[o+4], fast)
		}
		for i := 0; i < n; i++ {
			suffix[d] = 1
			for j := d - 1; j >= 0; j-- {
				suffix[j] = suffix[j+1] * fm[j*gradTileRows+i]
			}
			prefix := 1.0
			for j := 0; j < d; j++ {
				pgrad[j] += fg[j*gradTileRows+i] * prefix * suffix[j+1]
				prefix *= fm[j*gradTileRows+i]
			}
			sum += suffix[0]
		}
	}
	return sum
}

// fusedSelectivityGradient is the fused counterpart of SelectivityGradient.
// Callers have validated the query and zeroed grad.
func (e *Estimator) fusedSelectivityGradient(q query.Range, grad []float64) float64 {
	s, d := e.Size(), e.d
	fast := e.fastErf()
	fs := e.getFused()
	qc := fs.qcBuf(d * qcStride)
	e.queryConsts(q, qc)
	sum := 0.0
	if e.pool.Workers() <= 1 {
		scr := e.getScratch()
		for c, nc := 0, parallel.Chunks(s); c < nc; c++ {
			lo, hi := parallel.ChunkBounds(c, s)
			for j := range scr.pgrad {
				scr.pgrad[j] = 0
			}
			sum += e.fusedGradChunk(qc, lo, hi, scr, scr.pgrad, fast)
			for j := 0; j < d; j++ {
				grad[j] += scr.pgrad[j]
			}
		}
		e.putScratch(scr)
	} else {
		nc := parallel.Chunks(s)
		partials := e.bufs.Get(nc * (d + 1))
		e.pool.Run(s, func(c, lo, hi int) {
			scr := e.getScratch()
			row := partials[c*(d+1) : (c+1)*(d+1)]
			row[0] = e.fusedGradChunk(qc, lo, hi, scr, row[1:], fast)
			e.putScratch(scr)
		})
		for c := 0; c < nc; c++ {
			row := partials[c*(d+1) : (c+1)*(d+1)]
			sum += row[0]
			for j := 0; j < d; j++ {
				grad[j] += row[1+j]
			}
		}
		e.bufs.Put(partials)
	}
	e.putFused(fs)
	inv := 1 / float64(s)
	for j := range grad {
		grad[j] *= inv
	}
	return sum * inv
}

// fusedSelectivityBatch is the fused counterpart of SelectivityBatch:
// queries are scored in tiles of batchQTile against each L1-resident sample
// chunk, streaming every dimension's column tile exactly once per query
// tile (Q×N blocking). Callers have validated the queries.
func (e *Estimator) fusedSelectivityBatch(qs []query.Range, ests []float64) {
	nq := len(qs)
	s := e.Size()
	nc := parallel.Chunks(s)
	partials := e.bufs.Get(nc * nq)
	e.fusedBatchPartials(qs, partials)
	for iq := 0; iq < nq; iq++ {
		sum := 0.0
		for c := 0; c < nc; c++ {
			sum += partials[c*nq+iq]
		}
		ests[iq] = sum / float64(s)
	}
	e.bufs.Put(partials)
}

// fusedBatchPartials fills partials[c*nq+iq] with chunk c's unnormalized
// mass sum for query iq — the shared partial-fill stage behind both
// fusedSelectivityBatch and SelectivityBatchPartials. Every entry is
// assigned (not accumulated), so caller-provided buffers need no zeroing.
func (e *Estimator) fusedBatchPartials(qs []query.Range, partials []float64) {
	nq := len(qs)
	s, d := e.Size(), e.d
	fast := e.fastErf()
	fs := e.getFused()
	qcAll := fs.qcBuf(nq * d * qcStride)
	for i := range qs {
		e.queryConsts(qs[i], qcAll[i*d*qcStride:(i+1)*d*qcStride])
	}
	e.pool.Run(s, func(c, lo, hi int) {
		ws := e.getFused()
		acc := ws.accBuf(batchQTile * parallel.ChunkSize)
		n := hi - lo
		pr := partials[c*nq : (c+1)*nq]
		for q0 := 0; q0 < nq; q0 += batchQTile {
			qn := min(batchQTile, nq-q0)
			for j := 0; j < d; j++ {
				col := e.col(j)[lo:hi]
				for t := 0; t < qn; t++ {
					o := (q0+t)*d*qcStride + j*qcStride
					a := acc[t*parallel.ChunkSize : t*parallel.ChunkSize+n]
					if j == 0 {
						kernel.GaussianMassFill(a, col, qcAll[o], qcAll[o+1], qcAll[o+2], fast)
					} else {
						kernel.GaussianMassMul(a, col, qcAll[o], qcAll[o+1], qcAll[o+2], fast)
					}
				}
			}
			for t := 0; t < qn; t++ {
				a := acc[t*parallel.ChunkSize : t*parallel.ChunkSize+n]
				sum := 0.0
				for _, v := range a {
					sum += v
				}
				pr[q0+t] = sum
			}
		}
		e.putFused(ws)
	})
	e.putFused(fs)
}

// fusedGradientBatch is the fused counterpart of GradientBatch. Each chunk
// runs every query through fusedGradChunk — the identical per-chunk
// arithmetic of fusedSelectivityGradient — so batch and per-query gradients
// agree bit for bit. Callers have validated the queries.
func (e *Estimator) fusedGradientBatch(qs []query.Range, ests, grads []float64) {
	nq := len(qs)
	s, d := e.Size(), e.d
	stride := d + 1
	nc := parallel.Chunks(s)
	partials := e.bufs.Get(nc * nq * stride)
	e.fusedGradPartials(qs, partials)
	inv := 1 / float64(s)
	for iq := 0; iq < nq; iq++ {
		sum := 0.0
		g := grads[iq*d : (iq+1)*d]
		for j := range g {
			g[j] = 0
		}
		for c := 0; c < nc; c++ {
			pr := partials[(c*nq+iq)*stride:][:stride]
			sum += pr[0]
			for j := 0; j < d; j++ {
				g[j] += pr[1+j]
			}
		}
		for j := 0; j < d; j++ {
			g[j] *= inv
		}
		ests[iq] = sum * inv
	}
	e.bufs.Put(partials)
}

// fusedGradPartials fills partials[(c*nq+iq)*(d+1)] with chunk c's
// unnormalized mass sum for query iq and the d following entries with the
// chunk's unnormalized bandwidth-gradient terms — the partial-fill stage
// behind fusedGradientBatch. The gradient entries are accumulated by
// fusedGradChunk, so they are zeroed here first; buffers need no
// pre-zeroing.
func (e *Estimator) fusedGradPartials(qs []query.Range, partials []float64) {
	nq := len(qs)
	s, d := e.Size(), e.d
	stride := d + 1
	fast := e.fastErf()
	fs := e.getFused()
	qcAll := fs.qcBuf(nq * d * qcStride)
	for i := range qs {
		e.queryConsts(qs[i], qcAll[i*d*qcStride:(i+1)*d*qcStride])
	}
	e.pool.Run(s, func(c, lo, hi int) {
		scr := e.getScratch()
		base := partials[c*nq*stride : (c+1)*nq*stride]
		for iq := 0; iq < nq; iq++ {
			qc := qcAll[iq*d*qcStride : (iq+1)*d*qcStride]
			pr := base[iq*stride : (iq+1)*stride]
			for j := range pr[1:] {
				pr[1+j] = 0
			}
			pr[0] = e.fusedGradChunk(qc, lo, hi, scr, pr[1:], fast)
		}
		e.putScratch(scr)
	})
	e.putFused(fs)
}

// ForceGenericLayout disables the fused columnar path (for tests and
// cross-layout validation), forcing the row-major generic evaluators.
func (e *Estimator) ForceGenericLayout(force bool) { e.forceGeneric = force }
