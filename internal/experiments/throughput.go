package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/datagen"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// ThroughputConfig parameterizes the serving-path experiment: closed-loop
// concurrent clients driving one estimator through the coalescing server,
// swept over client counts. It quantifies what request coalescing buys —
// one fused traversal amortized over a whole batch — versus serializing
// every query behind the model mutex.
type ThroughputConfig struct {
	// Dims is the table dimensionality (default 8).
	Dims int
	// SampleSize is the KDE model size (default 4096).
	SampleSize int
	// Rows in the synthetic table (default SampleSize + 1000).
	Rows int
	// Clients are the closed-loop client counts to sweep (default
	// 1, 4, 16, 64). Each client issues its next query as soon as the
	// previous answer arrives.
	Clients []int
	// QueriesPerClient is each client's query budget per sweep point
	// (default 300).
	QueriesPerClient int
	// MaxBatch and MaxWait tune the coalescer (defaults serve.DefaultMaxBatch,
	// serve.DefaultMaxWait). MaxBatch ≤ 1 measures the uncoalesced mutex path.
	MaxBatch int
	MaxWait  time.Duration
	// Seed drives all randomness.
	Seed int64
	// Metrics, when non-nil, instruments the estimator and the serve layer;
	// the result carries a final snapshot.
	Metrics *metrics.Registry
	// ProfileLabel tags the coalescer's scheduler goroutine in CPU profiles
	// (kdebench -profile-serve).
	ProfileLabel bool
	// Precision selects the serving tier (core.ServeConfig.Precision); the
	// result records the tier actually served after the verify gate.
	Precision mathx.Precision
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.Dims <= 0 {
		c.Dims = 8
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 4096
	}
	if c.Rows <= 0 {
		c.Rows = c.SampleSize + 1000
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 4, 16, 64}
	}
	if c.QueriesPerClient <= 0 {
		c.QueriesPerClient = 300
	}
	return c
}

// ThroughputPoint is one sweep point: aggregate queries per second at a
// given concurrency, plus how well the coalescer filled its batches.
type ThroughputPoint struct {
	Clients  int
	Queries  int
	Elapsed  time.Duration
	QPS      float64
	Batches  int64   // evaluations performed (0 when coalescing is off)
	AvgBatch float64 // mean queries per evaluation (0 when coalescing is off)
}

// ThroughputResult aggregates the concurrency sweep.
type ThroughputResult struct {
	Config  ThroughputConfig
	Points  []ThroughputPoint
	Metrics *metrics.Snapshot
	// ActivePrecision is the tier estimates were actually served from —
	// Config.Precision unless the publish-time verify gate refused it.
	ActivePrecision mathx.Precision
}

// Throughput runs the closed-loop concurrency sweep. Every sweep point
// serves the same per-client query streams (deterministic in Seed), so
// points differ only in concurrency.
func Throughput(cfg ThroughputConfig) (*ThroughputResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	ds := datagen.Synthetic(rng, cfg.Rows, cfg.Dims, 10, 0.1)
	tab, err := table.New(cfg.Dims)
	if err != nil {
		return nil, err
	}
	if err := tab.InsertMany(ds.Rows); err != nil {
		return nil, err
	}

	res := &ThroughputResult{Config: cfg}
	for _, clients := range cfg.Clients {
		// Per-client query streams, regenerated identically per point.
		streams := make([][]query.Range, clients)
		for c := range streams {
			qrng := rand.New(rand.NewSource(cfg.Seed + int64(1000+c)))
			qs, err := workload.Generate(tab, workload.UV, cfg.QueriesPerClient, workload.Config{}, qrng)
			if err != nil {
				return nil, err
			}
			streams[c] = qs
		}

		est, err := core.Build(tab, core.Config{
			Mode:       core.Heuristic,
			SampleSize: cfg.SampleSize,
			Seed:       cfg.Seed,
			Metrics:    cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		reg := cfg.Metrics
		if reg == nil {
			// Always instrument the serve layer locally: batch counts feed
			// the result table even when the caller wants no snapshot.
			reg = metrics.New()
		}
		batchesBefore := reg.Histogram("serve.batch_size").Count()
		queriesBefore := reg.Histogram("serve.batch_size").Sum()
		srv := core.NewServer(est, core.ServeConfig{
			MaxBatch:     cfg.MaxBatch,
			MaxWait:      cfg.MaxWait,
			Metrics:      reg,
			ProfileLabel: cfg.ProfileLabel,
			Precision:    cfg.Precision,
		})
		res.ActivePrecision = srv.ActivePrecision()

		var wg sync.WaitGroup
		var firstErr error
		var errOnce sync.Once
		start := time.Now()
		for c := 0; c < clients; c++ {
			qs := streams[c]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range qs {
					if _, err := srv.Estimate(q); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		// Capture before Close: Close retires the coalescer, so afterwards
		// Coalescing reports false even for a run that batched throughout.
		coalesced := srv.Coalescing()
		srv.Close()
		if firstErr != nil {
			return nil, firstErr
		}

		total := clients * cfg.QueriesPerClient
		pt := ThroughputPoint{
			Clients: clients,
			Queries: total,
			Elapsed: elapsed,
			QPS:     float64(total) / elapsed.Seconds(),
		}
		if coalesced {
			pt.Batches = reg.Histogram("serve.batch_size").Count() - batchesBefore
			if pt.Batches > 0 {
				pt.AvgBatch = (reg.Histogram("serve.batch_size").Sum() - queriesBefore) / float64(pt.Batches)
			}
		}
		res.Points = append(res.Points, pt)
	}
	res.Metrics = snapshotOf(cfg.Metrics)
	return res, nil
}

// WriteTable renders the sweep in the style of the paper's runtime tables.
func (r *ThroughputResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "serving throughput: d=%d, model=%d points, maxBatch=%d\n",
		r.Config.Dims, r.Config.SampleSize, r.Config.MaxBatch)
	fmt.Fprintf(w, "%8s  %10s  %12s  %10s  %9s\n", "clients", "queries", "elapsed", "qps", "avg batch")
	for _, p := range r.Points {
		avg := "-"
		if p.AvgBatch > 0 {
			avg = fmt.Sprintf("%.1f", p.AvgBatch)
		}
		fmt.Fprintf(w, "%8d  %10d  %12s  %10.0f  %9s\n", p.Clients, p.Queries, p.Elapsed.Round(time.Millisecond), p.QPS, avg)
	}
}

// latSample is one client estimate: when it was issued and how long it took.
type latSample struct {
	start time.Time
	lat   time.Duration
}

// percentileDuration returns the p-quantile of lats by nearest-rank over the
// sorted sample; 0 for an empty sample. lats is sorted in place.
func percentileDuration(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(p*float64(len(lats))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx]
}
