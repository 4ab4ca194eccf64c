package ingest_test

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/ingest"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// testTable builds a deterministic clustered table.
func testTable(t *testing.T, n, d int, seed int64) *table.Table {
	t.Helper()
	tab, err := table.New(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		center := float64(rng.Intn(3)) * 4
		for j := range row {
			row[j] = center + rng.NormFloat64()
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
			c := float64(rng.Intn(3))*4 + rng.NormFloat64()
			w := 0.5 + rng.Float64()*2
			lo[j], hi[j] = c-w, c+w
		}
		qs[i] = query.NewRange(lo, hi)
	}
	return qs
}

// funcApplier adapts a function to ingest.Applier.
type funcApplier func(ms []table.Mutation) error

func (f funcApplier) ApplyMutations(ms []table.Mutation) error { return f(ms) }

// recorder collects every applied mutation in feed order.
type recorder struct {
	mu  sync.Mutex
	ms  []table.Mutation
	lag time.Duration
}

func (r *recorder) ApplyMutations(ms []table.Mutation) error {
	if r.lag > 0 {
		time.Sleep(r.lag)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		c := m
		c.Row = append([]float64(nil), m.Row...)
		if m.Pre != nil {
			c.Pre = append([]float64(nil), m.Pre...)
		}
		r.ms = append(r.ms, c)
	}
	return nil
}

func (r *recorder) applied() []table.Mutation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]table.Mutation(nil), r.ms...)
}

// TestIngestBridgeAppliesFeedInOrder checks that every table mutation
// reaches the applier exactly once, in mutation order, with consecutive
// 1-based sequence numbers.
func TestIngestBridgeAppliesFeedInOrder(t *testing.T) {
	tab := testTable(t, 50, 2, 1)
	rec := &recorder{}
	br, err := ingest.Attach(tab, rec, ingest.Config{RingSize: 32, MaxBatch: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	want := 0
	for i := 0; i < 40; i++ {
		switch {
		case i%7 == 3:
			if err := tab.Update(rng.Intn(tab.Len()), []float64{9, 9}); err != nil {
				t.Fatal(err)
			}
			want++
		case i%11 == 5:
			if err := tab.Delete(rng.Intn(tab.Len())); err != nil {
				t.Fatal(err)
			}
			want++
		default:
			if err := tab.Insert([]float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
				t.Fatal(err)
			}
			want++
		}
	}
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
	ms := rec.applied()
	if len(ms) != want {
		t.Fatalf("applied %d mutations, want %d", len(ms), want)
	}
	for i, m := range ms {
		if m.Seq != uint64(i+1) {
			t.Fatalf("mutation %d has Seq %d, want %d", i, m.Seq, i+1)
		}
	}
	if got := br.Cursor(); got != uint64(want) {
		t.Fatalf("Cursor() = %d, want %d", got, want)
	}
	st := br.Stats()
	if st.Applied != int64(want) || st.Enqueued != int64(want) || st.Skipped != 0 {
		t.Fatalf("stats %+v: want Applied=Enqueued=%d, Skipped=0", st, want)
	}
	if st.Batches > st.Applied || st.Batches == 0 {
		t.Fatalf("stats %+v: implausible batch count", st)
	}
	// Close is idempotent and the feed is detached: further mutations are
	// not recorded.
	if err := tab.Insert([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.applied()); got != want {
		t.Fatalf("mutation after Close still applied: %d != %d", got, want)
	}
}

// TestIngestBackpressureBoundsLag fills a tiny ring against a slow applier
// and checks that no mutation is lost, the producer parked at least once,
// and the observed depth never exceeded the ring size.
func TestIngestBackpressureBoundsLag(t *testing.T) {
	tab := testTable(t, 10, 2, 3)
	var maxDepth atomic.Int64
	rec := &recorder{lag: 200 * time.Microsecond}
	app := funcApplier(func(ms []table.Mutation) error { return rec.ApplyMutations(ms) })
	br, err := ingest.Attach(tab, app, ingest.Config{RingSize: 4, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-time.After(50 * time.Microsecond):
				if d := int64(br.Depth()); d > maxDepth.Load() {
					maxDepth.Store(d)
				}
			case <-done:
				return
			}
		}
	}()
	row := []float64{1, 2}
	for i := 0; i < n; i++ {
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
	done <- struct{}{}
	if got := len(rec.applied()); got != n {
		t.Fatalf("applied %d mutations, want %d", got, n)
	}
	st := br.Stats()
	if st.Blocked == 0 {
		t.Fatalf("stats %+v: expected producer parks on a 4-slot ring", st)
	}
	if maxDepth.Load() > 4 {
		t.Fatalf("observed ring depth %d > ring size 4", maxDepth.Load())
	}
}

// TestIngestReplayCursorSemantics checks both cursor modes: a replay feed
// skips events at or below the cursor without touching the applier, while
// a live continuation keeps numbering from the cursor.
func TestIngestReplayCursorSemantics(t *testing.T) {
	t.Run("replay", func(t *testing.T) {
		tab := testTable(t, 5, 2, 4)
		rec := &recorder{}
		br, err := ingest.Attach(tab, rec, ingest.Config{Cursor: 5, Replay: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := tab.Insert([]float64{float64(i), 0}); err != nil {
				t.Fatal(err)
			}
		}
		if err := br.Close(); err != nil {
			t.Fatal(err)
		}
		ms := rec.applied()
		if len(ms) != 3 {
			t.Fatalf("applied %d events, want 3 (5 of 8 below cursor)", len(ms))
		}
		for i, m := range ms {
			if m.Seq != uint64(6+i) || m.Row[0] != float64(5+i) {
				t.Fatalf("event %d: Seq=%d Row=%v, want Seq=%d Row[0]=%d", i, m.Seq, m.Row, 6+i, 5+i)
			}
		}
		if st := br.Stats(); st.Skipped != 5 || st.Applied != 3 {
			t.Fatalf("stats %+v: want Skipped=5 Applied=3", st)
		}
	})
	t.Run("live-continuation", func(t *testing.T) {
		tab := testTable(t, 5, 2, 4)
		rec := &recorder{}
		br, err := ingest.Attach(tab, rec, ingest.Config{Cursor: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := br.Close(); err != nil {
			t.Fatal(err)
		}
		ms := rec.applied()
		if len(ms) != 1 || ms[0].Seq != 6 {
			t.Fatalf("applied %v, want one event with Seq 6", ms)
		}
		if st := br.Stats(); st.Skipped != 0 {
			t.Fatalf("stats %+v: live continuation must not skip", st)
		}
	})
}

// driveOps applies a deterministic mutation stream to tab: mixed inserts,
// updates, and deletes whose shape depends only on the rng stream and the
// table's (deterministic) length evolution. Returns the number of feed
// events generated.
func driveOps(t *testing.T, tab *table.Table, rng *rand.Rand, n int) int {
	t.Helper()
	d := tab.Dims()
	events := 0
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		for j := range row {
			row[j] = float64(rng.Intn(3))*4 + rng.NormFloat64()
		}
		switch {
		case r < 0.6 || tab.Len() == 0:
			if err := tab.Insert(row); err != nil {
				t.Fatal(err)
			}
		case r < 0.8:
			if err := tab.Update(rng.Intn(tab.Len()), row); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tab.Delete(rng.Intn(tab.Len())); err != nil {
				t.Fatal(err)
			}
		}
		events++
	}
	return events
}

// synthStream builds a deterministic mutation batch whose rows reference
// tab's data (so deletes and update pre-images can hit sample slots), with
// 1-based sequence numbers.
func synthStream(tab *table.Table, n int, seed int64) []table.Mutation {
	rng := rand.New(rand.NewSource(seed))
	d := tab.Dims()
	ms := make([]table.Mutation, n)
	for i := range ms {
		r := rng.Float64()
		pick := append([]float64(nil), tab.Row(rng.Intn(tab.Len()))...)
		fresh := make([]float64, d)
		for j := range fresh {
			fresh[j] = float64(rng.Intn(3))*4 + rng.NormFloat64()
		}
		switch {
		case r < 0.55:
			ms[i] = table.Mutation{Kind: table.MutInsert, Row: fresh}
		case r < 0.8:
			ms[i] = table.Mutation{Kind: table.MutUpdate, Pre: pick, Row: fresh}
		default:
			ms[i] = table.Mutation{Kind: table.MutDelete, Row: pick}
		}
		ms[i].Seq = uint64(i + 1)
	}
	return ms
}

func estimateBits(t *testing.T, est interface {
	Estimate(q query.Range) (float64, error)
}, qs []query.Range) []uint64 {
	t.Helper()
	bits := make([]uint64, len(qs))
	for i, q := range qs {
		v, err := est.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestIngestBatchedApplyBitIdenticalCore is the property test from the
// issue, unsharded half: delivering one mutation stream through
// ApplyMutations in any batch partition yields a bit-identical model to
// one-at-a-time application, at every worker count.
func TestIngestBatchedApplyBitIdenticalCore(t *testing.T) { batchedApplyBitIdentical(t, 1) }

// TestIngestBatchedApplyBitIdenticalSharded is the sharded half: the same
// property for models with K = 2 and 4 shards.
func TestIngestBatchedApplyBitIdenticalSharded(t *testing.T) {
	for _, k := range []int{2, 4} {
		batchedApplyBitIdentical(t, k)
	}
}

func batchedApplyBitIdentical(t *testing.T, shards int) {
	const d = 3
	tab := testTable(t, 400, d, 11)
	stream := synthStream(tab, 240, 12)
	qs := testQueries(12, d, 13)
	cfg := core.Config{Mode: core.Adaptive, SampleSize: 128, Seed: 7, Shards: shards}
	build := func() *core.Estimator {
		est, err := core.Build(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		est.Detach() // feed the synthetic stream only
		return est
	}
	apply := func(est *core.Estimator, batch int) {
		for lo := 0; lo < len(stream); lo += batch {
			hi := lo + batch
			if hi > len(stream) {
				hi = len(stream)
			}
			if err := est.ApplyMutations(stream[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, workers := range []int{1, 2, 4} {
		ref := build()
		ref.SetWorkers(workers)
		apply(ref, 1)
		refBits := estimateBits(t, ref, qs)
		refBW := ref.Bandwidth()
		for _, batch := range []int{7, 64, len(stream)} {
			est := build()
			est.SetWorkers(workers)
			apply(est, batch)
			if got := est.IngestCursor(); got != ref.IngestCursor() {
				t.Fatalf("K=%d workers=%d batch=%d: cursor %d != %d", shards, workers, batch, got, ref.IngestCursor())
			}
			for j, bw := range est.Bandwidth() {
				if math.Float64bits(bw) != math.Float64bits(refBW[j]) {
					t.Fatalf("K=%d workers=%d batch=%d: bandwidth[%d] %v != %v", shards, workers, batch, j, bw, refBW[j])
				}
			}
			bits := estimateBits(t, est, qs)
			for i := range bits {
				if bits[i] != refBits[i] {
					t.Fatalf("K=%d workers=%d batch=%d query=%d: estimate bits %x != %x",
						shards, workers, batch, i, bits[i], refBits[i])
				}
			}
		}
	}
}

// TestIngestExactlyOnceRestoreCore interrupts an ingesting core model with
// a checkpoint, restores it, replays the feed from the beginning with the
// restored cursor, and checks the result is bit-identical to a model that
// never stopped.
func TestIngestExactlyOnceRestoreCore(t *testing.T) {
	exactlyOnceRestore(t, core.Config{Mode: core.Adaptive, SampleSize: 128, Seed: 17}, 30, 31, 300)
}

// TestIngestExactlyOnceRestoreSharded is the same round-trip through the
// checkpoint of a model with K = 4 shards.
func TestIngestExactlyOnceRestoreSharded(t *testing.T) {
	exactlyOnceRestore(t, core.Config{Mode: core.Adaptive, Shards: 4, SampleSize: 128, Seed: 19}, 40, 41, 240)
}

func exactlyOnceRestore(t *testing.T, cfg core.Config, tabSeed, opSeed int64, nOps int) {
	const d = 3
	qs := testQueries(12, d, opSeed+2)

	attach := func(tab *table.Table, icfg ingest.Config) (*core.Server, *ingest.Bridge) {
		est, err := core.Build(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := core.NewServer(est, core.ServeConfig{MaxBatch: 1})
		srv.DetachFeed()
		br, err := ingest.Attach(tab, srv, icfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv, br
	}

	// Uninterrupted reference run.
	tabRef := testTable(t, 400, d, tabSeed)
	srvRef, brRef := attach(tabRef, ingest.Config{MaxBatch: 16})
	driveOps(t, tabRef, rand.New(rand.NewSource(opSeed)), nOps)
	if err := brRef.Close(); err != nil {
		t.Fatal(err)
	}
	refBits := estimateBits(t, srvRef, qs)

	// Interrupted run: checkpoint halfway.
	tabA := testTable(t, 400, d, tabSeed)
	srvA, brA := attach(tabA, ingest.Config{MaxBatch: 16})
	opRng := rand.New(rand.NewSource(opSeed))
	half := driveOps(t, tabA, opRng, nOps/2)
	if err := brA.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := srvA.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	if got := srvA.IngestCursor(); got != uint64(half) {
		t.Fatalf("checkpoint cursor %d, want %d", got, half)
	}
	if err := brA.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash recovery: fresh table, restore the checkpoint, replay the FULL
	// op stream; events at or below the cursor must be skipped.
	tabB := testTable(t, 400, d, tabSeed)
	est, err := core.RestoreCheckpoint(path, tabB, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvB := core.NewServer(est, core.ServeConfig{MaxBatch: 1})
	srvB.DetachFeed()
	if srvB.Shards() != srvA.Shards() {
		t.Fatalf("restored %d shards, want %d", srvB.Shards(), srvA.Shards())
	}
	brB, err := ingest.Attach(tabB, srvB, ingest.Config{
		MaxBatch: 16, Cursor: srvB.IngestCursor(), Replay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, tabB, rand.New(rand.NewSource(opSeed)), nOps)
	if err := brB.Close(); err != nil {
		t.Fatal(err)
	}
	if st := brB.Stats(); st.Skipped != int64(half) {
		t.Fatalf("replay skipped %d events, want %d", st.Skipped, half)
	}
	if got, want := srvB.IngestCursor(), srvRef.IngestCursor(); got != want {
		t.Fatalf("restored cursor %d, want %d", got, want)
	}
	bits := estimateBits(t, srvB, qs)
	for i := range bits {
		if bits[i] != refBits[i] {
			t.Fatalf("query %d: restored estimate bits %x != uninterrupted %x", i, bits[i], refBits[i])
		}
	}
}

// TestIngestRaceUnderServing is the -race acceptance test: at least 10k
// mutations stream through bridges into registry-served models (one
// unsharded, one sharded) while estimate and feedback traffic runs
// concurrently. The race detector does the real checking; the assertions
// confirm the volume and that nothing was lost.
func TestIngestRaceUnderServing(t *testing.T) {
	const d = 3
	met := metrics.New()
	reg := registry.New(registry.Config{Metrics: met, SweepEvery: -1})
	defer reg.Close()

	plainKey := registry.NewKey("plain", 0, 1, 2)
	shardKey := registry.NewKey("sharded", 0, 1, 2)
	plainTab := testTable(t, 1000, d, 51)
	shardTab := testTable(t, 1000, d, 52)
	bcfg := core.Config{Mode: core.Adaptive, SampleSize: 128, Seed: 5}
	if err := reg.Admit(plainKey, plainTab, bcfg, core.ServeConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.AdmitSharded(shardKey, shardTab, bcfg, 4, core.ServeConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []registry.Key{plainKey, shardKey} {
		if err := reg.AttachIngest(key, registry.IngestOptions{RingSize: 256}); err != nil {
			t.Fatal(err)
		}
	}

	const target = 10_000
	var produced atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	mutate := func(tab *table.Table, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		row := make([]float64, d)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for j := range row {
				row[j] = float64(rng.Intn(3))*4 + rng.NormFloat64()
			}
			var err error
			n := 1
			switch r := rng.Float64(); {
			case r < 0.70:
				err = tab.Insert(row)
			case r < 0.90:
				err = tab.Update(rng.Intn(tab.Len()), row)
			default:
				lo := make([]float64, d)
				hi := make([]float64, d)
				for j := range lo {
					lo[j] = row[j] - 0.05
					hi[j] = row[j] + 0.05
				}
				n, err = tab.DeleteWhere(query.NewRange(lo, hi))
			}
			if err != nil {
				t.Error(err)
				return
			}
			produced.Add(int64(n))
		}
	}
	serve := func(key registry.Key, tab *table.Table, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		ctx := context.Background()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := make([]float64, d)
			hi := make([]float64, d)
			for j := range lo {
				c := float64(rng.Intn(3))*4 + rng.NormFloat64()
				lo[j], hi[j] = c-1, c+1
			}
			q := query.NewRange(lo, hi)
			if i%10 == 9 {
				actual, err := tab.Selectivity(q)
				if err == nil {
					if err := reg.Feedback(key, q, actual); err != nil {
						t.Error(err)
						return
					}
				}
				continue
			}
			if _, err := reg.EstimateContext(ctx, key, q); err != nil {
				t.Error(err)
				return
			}
		}
	}

	wg.Add(6)
	go mutate(plainTab, 61)
	go mutate(plainTab, 62)
	go mutate(shardTab, 63)
	go mutate(shardTab, 64)
	go serve(plainKey, plainTab, 65)
	go serve(shardKey, shardTab, 66)

	deadline := time.After(2 * time.Minute)
	for produced.Load() < target {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("timed out with %d/%d mutations produced", produced.Load(), target)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()

	var applied int64
	for _, key := range []registry.Key{plainKey, shardKey} {
		// Eviction-style teardown would flush; here just wait the ring dry.
		for i := 0; ; i++ {
			st, ok := reg.IngestStats(key)
			if !ok {
				t.Fatalf("%v: no bridge attached", key)
			}
			if st.Depth == 0 {
				if st.ApplyErrors != 0 {
					t.Fatalf("%v: %d apply errors", key, st.ApplyErrors)
				}
				if st.Cursor != uint64(st.Applied) {
					t.Fatalf("%v: cursor %d != applied %d", key, st.Cursor, st.Applied)
				}
				applied += st.Applied
				break
			}
			if i > 4000 {
				t.Fatalf("%v: ring never drained (depth %d)", key, st.Depth)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if applied < target {
		t.Fatalf("applied %d mutations across models, want >= %d", applied, target)
	}
}

// TestIngestDriftTriggersAnalyze drives the §6.5 evolving-cluster workload
// through a bridged registry model and checks that the drift detector
// fires and schedules a background ANALYZE.
func TestIngestDriftTriggersAnalyze(t *testing.T) {
	ev, err := workload.NewEvolving(workload.EvolvingConfig{
		Dims: 3, InitialTuples: 900, Cycles: 4, TuplesPerCluster: 600, QueriesPerCycle: 10,
	}, 71)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := table.New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertMany(ev.Initial); err != nil {
		t.Fatal(err)
	}
	met := metrics.New()
	reg := registry.New(registry.Config{Metrics: met, SweepEvery: -1})
	defer reg.Close()
	key := registry.NewKey("evolving", 0, 1, 2)
	if err := reg.Admit(key, tab, core.Config{Mode: core.Adaptive, SampleSize: 128, Seed: 3}, core.ServeConfig{}); err != nil {
		t.Fatal(err)
	}
	err = reg.AttachIngest(key, registry.IngestOptions{
		Drift:      ingest.DriftConfig{Window: 64, Threshold: 0.4},
		AnalyzeMin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ev.Ops {
		switch op.Kind {
		case workload.OpInsert:
			if err := tab.Insert(op.Row); err != nil {
				t.Fatal(err)
			}
		case workload.OpDeleteRegion:
			if _, err := tab.DeleteWhere(op.Region); err != nil {
				t.Fatal(err)
			}
		case workload.OpQuery:
			actual, err := tab.Selectivity(op.Query)
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Feedback(key, op.Query, actual); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, ok := reg.IngestStats(key)
	if !ok {
		t.Fatal("no bridge attached")
	}
	if st.DriftTriggers == 0 {
		t.Fatalf("stats %+v: evolving clusters produced no drift trigger", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for met.Counter("registry.drift_analyzes").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drift triggered %d times but no ANALYZE was scheduled", st.DriftTriggers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
