// Package parallel implements the host-side execution runtime behind the
// paper's §5 observation that every KDE operation decomposes into a
// per-sample-point map followed by a reduction. It provides a chunked
// worker pool whose reduction tree is fixed by a constant chunk size, so
// the floating-point result of a chunked computation is a pure function of
// its input — the worker count only decides which goroutine executes a
// chunk — plus recycled scratch buffers that keep the hot paths free of
// per-call allocations.
//
// Determinism contract: Run splits [0, n) into fixed-size chunks of
// ChunkSize items (independent of the worker count). Callers compute one
// partial result per chunk, using only that chunk's items in index order,
// and combine the partials in chunk-index order afterwards. Because each
// chunk's arithmetic and the combination order never vary, serial and
// parallel execution produce bit-identical results for every worker count.
// This mirrors the fixed binary reduction tree of the simulated device
// (internal/gpu), which guarantees the same property on the accelerator.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"kdesel/internal/metrics"
)

// ChunkSize is the fixed chunk granularity of Run. It is a constant — never
// derived from the worker count or the input size — because the chunk grid
// defines the reduction tree, and the tree must not change when the
// parallelism does. 256 rows keeps a chunk's working set (a few KiB per
// dimension) inside L1 while amortizing the per-chunk dispatch overhead.
const ChunkSize = 256

// Pool is a bounded worker pool for chunked map+reduce loops. The zero
// value and the nil pool both execute serially; Pool carries no per-Run
// state (only optional cumulative instruments) and is safe for concurrent
// use from multiple goroutines.
type Pool struct {
	workers int
	runs    *metrics.Counter // Run invocations dispatched
	chunks  *metrics.Counter // chunks executed across all runs
}

// Instrument attaches metrics to the pool: parallel.runs and
// parallel.chunks count dispatched work, parallel.workers reports the
// configured parallelism. Instruments never affect what Run computes — the
// chunk grid and reduction order are untouched. No-op on a nil pool or nil
// registry.
func (p *Pool) Instrument(r *metrics.Registry) {
	if p == nil {
		return
	}
	p.runs = r.Counter("parallel.runs")
	p.chunks = r.Counter("parallel.chunks")
	r.Gauge("parallel.workers").Set(float64(p.Workers()))
}

// NewPool returns a pool with the given number of workers; any value below
// one selects runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// PoolFor maps a Workers configuration knob to a pool: 0 or 1 mean serial
// execution (a nil pool, spawning no goroutines), n > 1 means n workers,
// and any negative value means runtime.NumCPU().
func PoolFor(workers int) *Pool {
	if workers == 0 || workers == 1 {
		return nil
	}
	return NewPool(workers)
}

// Workers returns the configured worker count; a nil or zero-value pool
// reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Chunks returns the number of fixed-size chunks covering n items.
func Chunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the half-open item range [lo, hi) of chunk c over n
// items.
func ChunkBounds(c, n int) (lo, hi int) {
	lo = c * ChunkSize
	hi = lo + ChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Run invokes body(c, lo, hi) exactly once for every chunk c of the fixed
// grid over [0, n), where [lo, hi) is the chunk's item range. With one
// worker (or a nil pool) the chunks run inline in index order; otherwise
// workers claim chunks from an atomic counter, so bodies for different
// chunks may run concurrently and in any order. body must therefore only
// write to chunk-private state (e.g. partials[c]); combining the partials
// in chunk-index order afterwards is what makes the overall reduction
// deterministic.
func (p *Pool) Run(n int, body func(c, lo, hi int)) {
	nc := Chunks(n)
	if nc == 0 {
		return
	}
	if p != nil {
		p.runs.Inc()
		p.chunks.Add(int64(nc))
	}
	w := p.Workers()
	if w > nc {
		w = nc
	}
	if w <= 1 {
		for c := 0; c < nc; c++ {
			lo, hi := ChunkBounds(c, n)
			body(c, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nc {
					return
				}
				lo, hi := ChunkBounds(c, n)
				body(c, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// BufferPool recycles float64 scratch slices across calls and goroutines.
// The zero value is ready to use; Get and Put are safe for concurrent use.
type BufferPool struct {
	pool sync.Pool
}

// Get returns a zeroed slice of length n, reusing a previously Put buffer
// when one of sufficient capacity is available.
func (b *BufferPool) Get(n int) []float64 {
	if v, ok := b.pool.Get().(*[]float64); ok && cap(*v) >= n {
		s := (*v)[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float64, n)
}

// Put returns a buffer to the pool for reuse. The caller must not use the
// slice afterwards.
func (b *BufferPool) Put(s []float64) {
	if cap(s) == 0 {
		return
	}
	b.pool.Put(&s)
}
