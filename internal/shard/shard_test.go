package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// The K-invariance contracts of core.Config.Shards: a model's estimates,
// feedback trajectory, checkpoints and ingest are identical at every shard
// count K ∈ {1, 2, 4, 7}; K = 7 over a short sample leaves shards that own
// no chunk.

// testTable builds a deterministic n-row, d-dim table.
func testTable(t *testing.T, n, d int, seed int64) *table.Table {
	t.Helper()
	tab, err := table.New(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.NormFloat64()*float64(j+1) + 0.3*float64(j)
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func testQueries(n, d int, seed int64) []query.Range {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query.Range, n)
	for i := range qs {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := range lo {
			a := rng.NormFloat64() * float64(j+1) * 2
			b := a + math.Abs(rng.NormFloat64())*float64(j+1)
			lo[j], hi[j] = a, b
		}
		qs[i] = query.NewRange(lo, hi)
	}
	return qs
}

func feedbacks(t *testing.T, tab *table.Table, qs []query.Range) []query.Feedback {
	t.Helper()
	fbs := make([]query.Feedback, len(qs))
	for i, q := range qs {
		actual, err := tab.Selectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		fbs[i] = query.Feedback{Query: q, Actual: actual}
	}
	return fbs
}

func build(t *testing.T, tab *table.Table, cfg Config) *core.Server {
	t.Helper()
	srv, err := Build(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// estimateBits estimates every query through EstimateDetail — the survivor
// gather on a model with an injector, the plain path otherwise.
func estimateBits(t *testing.T, srv *core.Server, qs []query.Range) []uint64 {
	t.Helper()
	out := make([]uint64, len(qs))
	for i, q := range qs {
		est, degraded, err := srv.EstimateDetail(context.Background(), q)
		if err != nil || degraded {
			t.Fatalf("query %d: degraded=%v err=%v", i, degraded, err)
		}
		out[i] = math.Float64bits(est)
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: query %d bits %x, want %x (K=1)", what, i, got[i], want[i])
		}
	}
}

// TestShardBitIdentity: for every shard count, worker count, serving
// precision and erf mode, a K-shard model serves the K=1 model's estimates
// bit for bit (Float64bits) — also through the survivor gather a model
// with a fault injector takes, when no shard fails.
func TestShardBitIdentity(t *testing.T) {
	const d, rows, sampleSize = 3, 3000, 1200
	tab := testTable(t, rows, d, 11)
	qs := testQueries(40, d, 23)
	quiet := fault.New(1, fault.Schedule{}) // survivor gather, no failures
	for _, prec := range []mathx.Precision{mathx.Float64, mathx.Float32, mathx.Quantized} {
		for _, mode := range []mathx.Mode{mathx.Exact, mathx.Fast} {
			prev := mathx.CurrentMode()
			mathx.SetMode(mode)
			ref := build(t, tab, Config{SampleSize: sampleSize, Seed: 7})
			ref.SetPrecision(prec)
			want := estimateBits(t, ref, qs)
			for _, k := range []int{1, 2, 4, 7} {
				for _, workers := range []int{0, 3, 8} {
					for _, inj := range []*fault.Injector{nil, quiet} {
						srv := build(t, tab, Config{Shards: k, SampleSize: sampleSize, Seed: 7, Workers: workers, Faults: inj})
						srv.SetPrecision(prec)
						sameBits(t, "estimate", estimateBits(t, srv, qs), want)
					}
				}
			}
			mathx.SetMode(prev)
		}
	}
}

// TestShardFeedbackInvariance: the learned trajectory — bandwidth steps,
// karma replacements, reservoir accepts — is invariant in K: after an
// identical feedback and insert sequence, models of every shard count
// hold the K=1 bandwidth and serve its estimates bit for bit.
func TestShardFeedbackInvariance(t *testing.T) {
	const d, rows, sampleSize = 2, 2500, 1000
	qs := testQueries(25, d, 41)
	fbq := testQueries(60, d, 43)

	var ref, refH []uint64
	for _, k := range []int{1, 2, 4, 7} {
		// A fresh table per K: inserts feed the model's reservoir.
		tab := testTable(t, rows, d, 31)
		est, err := core.Build(tab, Config{Mode: core.Adaptive, Shards: k, SampleSize: sampleSize, Seed: 5, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range fbq {
			actual := 0.0
			if i%3 != 0 { // every third query reports an empty region
				actual, _ = tab.Selectivity(q)
			}
			if err := est.Feedback(q, actual); err != nil {
				t.Fatalf("K=%d feedback %d: %v", k, i, err)
			}
			if i%10 == 0 { // interleave inserts to drive the reservoir
				if err := tab.Insert([]float64{float64(i), -float64(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		est.Detach()
		got := estimateBits(t, core.NewServer(est, core.ServeConfig{MaxBatch: 1}), qs)
		var h []uint64
		for _, v := range est.Bandwidth() {
			h = append(h, math.Float64bits(v))
		}
		if k == 1 {
			ref, refH = got, h
			continue
		}
		sameBits(t, "estimate after feedback", got, ref)
		sameBits(t, "bandwidth after feedback", h, refH)
	}
}

// TestShardCheckpointRoundTrip: a restored K=4 model serves bit-identical
// estimates and continues bit-identically under further feedback and
// ANALYZE — the checkpoint carries K, the ANALYZE count, the ingest
// cursor, and the learner, karma and RNG state.
func TestShardCheckpointRoundTrip(t *testing.T) {
	const d, rows, sampleSize = 2, 2000, 900
	for _, prec := range []mathx.Precision{mathx.Float64, mathx.Float32, mathx.Quantized} {
		tab := testTable(t, rows, d, 17)
		qs := testQueries(20, d, 19)
		fbq := testQueries(30, d, 29)
		fbs := feedbacks(t, tab, testQueries(12, d, 37))
		cfg := Config{Mode: core.Adaptive, Shards: 4, SampleSize: sampleSize, Seed: 3, Workers: 2}
		srv := build(t, tab, cfg)
		srv.SetPrecision(prec)
		for _, q := range fbq[:15] {
			actual, _ := tab.Selectivity(q)
			if err := srv.Feedback(q, actual); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Reoptimize(fbs); err != nil { // ANALYZE #1: shard 0
			t.Fatal(err)
		}
		ins := []table.Mutation{{Kind: table.MutInsert, Seq: 41, Row: []float64{0.5, 0.5}}}
		if err := srv.ApplyMutations(ins); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "model.ckpt")
		if err := srv.Checkpoint(path); err != nil {
			t.Fatal(err)
		}
		est, err := core.RestoreCheckpoint(path, testTable(t, rows, d, 17), nil)
		if err != nil {
			t.Fatal(err)
		}
		r := core.NewServer(est, core.ServeConfig{MaxBatch: 1, Precision: prec})
		t.Cleanup(r.Close)
		if r.Shards() != 4 || r.IngestCursor() != 41 || r.ConfiguredPrecision() != prec {
			t.Fatalf("restored shards=%d cursor=%d prec=%v, want 4/41/%v", r.Shards(), r.IngestCursor(), r.ConfiguredPrecision(), prec)
		}
		check := func(stage string) {
			t.Helper()
			sameBits(t, prec.String()+" "+stage, estimateBits(t, r, qs), estimateBits(t, srv, qs))
		}
		check("immediately after restore")
		// Continuation: the same feedback keeps them in lockstep (same karma
		// decisions, same replacement rows from the fast-forwarded RNG, same
		// learner steps), and ANALYZE #2 optimizes shard 1 on both.
		for _, q := range fbq[15:] {
			actual, _ := tab.Selectivity(q)
			if err := srv.Feedback(q, actual); err != nil {
				t.Fatal(err)
			}
			if err := r.Feedback(q, actual); err != nil {
				t.Fatal(err)
			}
		}
		check("after post-restore feedback")
		if err := srv.Reoptimize(fbs); err != nil {
			t.Fatal(err)
		}
		if err := r.Reoptimize(fbs); err != nil {
			t.Fatal(err)
		}
		check("after post-restore ANALYZE")
	}
}

// TestShardEmptyShards: more shards than chunks (K=7 over a 2-chunk
// sample) leaves five shards owning nothing. The model still serves the
// K=1 estimates, and an ANALYZE that lands on an empty shard is a no-op.
func TestShardEmptyShards(t *testing.T) {
	const d, rows, sampleSize = 2, 800, 512 // 512 rows → 2 chunks
	tab := testTable(t, rows, d, 53)
	qs := testQueries(10, d, 59)
	fbs := feedbacks(t, tab, testQueries(16, d, 61))
	want := estimateBits(t, build(t, tab, Config{SampleSize: sampleSize, Seed: 9}), qs)
	cfg := Config{Shards: 7, SampleSize: sampleSize, Seed: 9, Workers: 4}
	sameBits(t, "K=7 estimate", estimateBits(t, build(t, tab, cfg), qs), want)
	est, err := core.Build(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3; n++ {
		h0 := est.Bandwidth()
		if err := est.Reoptimize(fbs); err != nil {
			t.Fatal(err)
		}
		h1 := est.Bandwidth()
		moved := h1[0] != h0[0] || h1[1] != h0[1]
		if owns := n <= 2; moved != owns {
			t.Fatalf("ANALYZE #%d (shard %d, owns a chunk: %v) moved the bandwidth: %v", n, n-1, owns, moved)
		}
	}
}

// TestShardPartialFailure: a shard lost to fault.ShardFail degrades the
// estimate (renormalized over survivors, Degraded health, per-request
// flag) instead of failing it; losing every shard is an error.
func TestShardPartialFailure(t *testing.T) {
	const d, rows, sampleSize = 2, 2000, 1024 // 4 chunks → K=4, one chunk each
	tab := testTable(t, rows, d, 61)
	q := testQueries(1, d, 67)[0]

	// Occurrences count per-shard attempts in shard-index order: the 4
	// shards of the first estimate are occurrences 1..4.
	inj := fault.New(1, fault.Schedule{fault.ShardFail: {At: []int{2}}})
	srv := build(t, tab, Config{Shards: 4, SampleSize: sampleSize, Seed: 13, Workers: 2, Faults: inj})
	est, degraded, err := srv.EstimateDetail(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("estimate with a failed shard did not report degraded")
	}
	if srv.Health() != core.Degraded {
		t.Fatalf("health = %v, want Degraded", srv.Health())
	}
	healthy, degraded, err := build(t, tab, Config{Shards: 4, SampleSize: sampleSize, Seed: 13}).EstimateDetail(context.Background(), q)
	if err != nil || degraded {
		t.Fatalf("healthy model: est=%g degraded=%v err=%v", healthy, degraded, err)
	}
	if est < 0 || est > 1 || math.Abs(est-healthy) > 0.2 {
		t.Fatalf("degraded estimate %g implausible against healthy %g", est, healthy)
	}

	// All shards down: the estimate fails instead of serving garbage.
	injAll := fault.New(1, fault.Schedule{fault.ShardFail: {At: []int{1, 2, 3, 4}}})
	srv = build(t, tab, Config{Shards: 4, SampleSize: sampleSize, Seed: 13, Faults: injAll})
	if _, _, err := srv.EstimateDetail(context.Background(), q); !errors.Is(err, core.ErrAllShardsFailed) {
		t.Fatalf("all-shards-failed estimate returned %v, want core.ErrAllShardsFailed", err)
	}

	// Concurrent estimates beside a writer: the survivor path reads the
	// published snapshot, and marking the model Degraded takes the writer
	// lock.
	injSome := fault.New(1, fault.Schedule{fault.ShardFail: {Every: 3}})
	srv = build(t, tab, Config{Mode: core.Adaptive, Shards: 4, SampleSize: sampleSize, Seed: 13, Faults: injSome})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				est, _, err := srv.EstimateDetail(context.Background(), q)
				if err != nil || est < 0 || est > 1 {
					t.Errorf("concurrent estimate %v: %v", est, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := srv.Feedback(q, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestShardContextCancel: an expired request context aborts the estimate
// with the context's error, on the plain and the survivor path alike.
func TestShardContextCancel(t *testing.T) {
	tab := testTable(t, 1500, 2, 71)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, inj := range []*fault.Injector{nil, fault.New(1, fault.Schedule{})} {
		srv := build(t, tab, Config{Shards: 4, SampleSize: 1024, Seed: 1, Faults: inj})
		if _, _, err := srv.EstimateDetail(ctx, testQueries(1, 2, 73)[0]); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled estimate returned %v, want context.Canceled", err)
		}
	}
}

// TestShardInvalidQuery: validation failures map to core.ErrInvalidQuery
// (the HTTP layer's 400 taxonomy) for dimension mismatch, NaN, ±Inf and
// inverted bounds, on both estimate paths.
func TestShardInvalidQuery(t *testing.T) {
	tab := testTable(t, 1000, 2, 79)
	bad := []query.Range{
		query.NewRange([]float64{0}, []float64{1}),                 // wrong dims
		query.NewRange([]float64{math.NaN(), 0}, []float64{1, 1}),  // NaN
		query.NewRange([]float64{0, 0}, []float64{math.Inf(1), 1}), // Inf
		query.NewRange([]float64{1, 0}, []float64{0, 1}),           // inverted
	}
	for _, inj := range []*fault.Injector{nil, fault.New(1, fault.Schedule{})} {
		srv := build(t, tab, Config{Mode: core.Adaptive, Shards: 2, SampleSize: 512, Seed: 1, Faults: inj})
		for i, q := range bad {
			if _, _, err := srv.EstimateDetail(context.Background(), q); !errors.Is(err, core.ErrInvalidQuery) {
				t.Fatalf("bad query %d returned %v, want core.ErrInvalidQuery", i, err)
			}
		}
		if err := srv.Feedback(testQueries(1, 2, 1)[0], math.NaN()); !errors.Is(err, core.ErrInvalidFeedback) {
			t.Fatalf("NaN feedback returned %v, want core.ErrInvalidFeedback", err)
		}
	}
}

// TestShardAnalyzeIsolation: while ANALYZE optimizes, estimates and writer
// operations (feedback, checkpoints) keep completing — the optimization
// holds no lock — and the new bandwidth is installed afterwards.
func TestShardAnalyzeIsolation(t *testing.T) {
	const d = 2
	tab := testTable(t, 3000, d, 83)
	srv := build(t, tab, Config{Mode: core.Adaptive, Shards: 4, SampleSize: 2048, Seed: 21, Workers: 2})
	fbs := feedbacks(t, tab, testQueries(40, d, 89))
	done := make(chan error, 1)
	go func() { done <- srv.Reoptimize(fbs) }()
	qs := testQueries(5, d, 97)
	path := filepath.Join(t.TempDir(), "during.ckpt")
	served := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if served == 0 {
				t.Fatal("no estimate or writer completed during analyze")
			}
			return
		default:
			if _, err := srv.Estimate(qs[served%len(qs)]); err != nil {
				t.Fatalf("estimate during analyze: %v", err)
			}
			if err := srv.Feedback(fbs[served%len(fbs)].Query, fbs[served%len(fbs)].Actual); err != nil {
				t.Fatalf("feedback during analyze: %v", err)
			}
			if err := srv.Checkpoint(path); err != nil {
				t.Fatalf("checkpoint during analyze: %v", err)
			}
			served++
		}
	}
}

// TestShardAnalyzeGolden: on a fresh K=4 model the first four ANALYZEs
// optimize shards 0..3 in turn, each on its own stream Seed + 7919·n, and
// install the bandwidths the former standalone sharded model type
// installed for the same table, seed and feedback (captured from it).
func TestShardAnalyzeGolden(t *testing.T) {
	const d = 2
	tab := testTable(t, 3000, d, 83)
	fbs := feedbacks(t, tab, testQueries(24, d, 89))
	golden := [4][d]uint64{
		{0x3fd918d10171b412, 0x3fd9c5e182bb0218},
		{0x3fcb2e2d026d8a1b, 0x3fb1595f8be78588},
		{0x3fd99dfb9cb76134, 0x3fef70e05335e6f7},
		{0x3fd4e0e300842756, 0x3f9718aa38782501},
	}
	est, err := core.Build(tab, Config{Shards: 4, SampleSize: 1024, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range golden {
		if err := est.Reoptimize(fbs); err != nil {
			t.Fatal(err)
		}
		for j, h := range est.Bandwidth() {
			if math.Float64bits(h) != want[j] {
				t.Fatalf("ANALYZE #%d: h[%d] = %x, want %x", n+1, j, math.Float64bits(h), want[j])
			}
		}
	}
}

// TestShardMetrics: a shard loss reports through the model's ordinary
// core.* instruments — one degradation event, health gauge at Degraded.
func TestShardMetrics(t *testing.T) {
	reg := metrics.New()
	tab := testTable(t, 1500, 2, 101)
	inj := fault.New(1, fault.Schedule{fault.ShardFail: {At: []int{1}}})
	srv := build(t, tab, Config{Shards: 2, SampleSize: 600, Seed: 1, Metrics: reg, Faults: inj})
	for i := 0; i < 2; i++ {
		if _, _, err := srv.EstimateDetail(context.Background(), testQueries(1, 2, 103)[0]); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["core.degradation_events"] != 1 || snap.Gauges["core.health"] != float64(core.Degraded) {
		t.Fatalf("degradation_events = %v, health = %v; want 1 and %d",
			snap.Counters["core.degradation_events"], snap.Gauges["core.health"], core.Degraded)
	}
}
