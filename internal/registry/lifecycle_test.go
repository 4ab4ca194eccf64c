package registry

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kdesel/internal/bandwidth"
	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// ckptSeq returns how many checkpoint files key's model has written into
// dir: the sequence number of its newest file (rotation deletes older
// ones), 0 when there is none.
func ckptSeq(t *testing.T, dir string, key Key) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, key.fileStem()+"-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	top := 0
	for _, f := range files {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), key.fileStem()+"-"), ".ckpt"))
		if err != nil {
			t.Fatalf("checkpoint file %s: %v", f, err)
		}
		top = max(top, n)
	}
	return top
}

// dirEntries counts the files in dir.
func dirEntries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// sameBits fails unless got and want are the same float64, bit for bit.
func sameBits(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: estimate %v (%#x), reference %v (%#x)", label,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// clusterRows draws n rows around the three cluster centres of buildTable.
func clusterRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		center := float64(rng.Intn(3)) * 5
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = center + rng.NormFloat64()
		}
	}
	return rows
}

// TestEvictCleanModelWritesNothing: a model that served only estimates
// since its restore is already on disk byte for byte, so evicting it
// writes no file and counts registry.checkpoints_skipped instead. The
// restore after it is bit-identical, and the model then learns and ingests
// exactly like a twin that was never evicted.
func TestEvictCleanModelWritesNothing(t *testing.T) {
	dir := t.TempDir()
	met := metrics.New()
	r := New(Config{CheckpointDir: dir, Metrics: met, SweepEvery: -1})
	defer r.Close()
	key := NewKey("t", 0, 1)
	cfg := ingestCfg(5)
	tab, twinTab := buildTable(t, 400, 2, 71), buildTable(t, 400, 2, 71)
	if err := r.Admit(key, tab, cfg, core.ServeConfig{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	twin, err := core.Build(twinTab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	feedback := func(n int) {
		t.Helper()
		for _, fb := range feedbackSet(t, tab, rng, n) {
			if err := r.Feedback(key, fb.Query, fb.Actual); err != nil {
				t.Fatal(err)
			}
			if err := twin.Feedback(fb.Query, fb.Actual); err != nil {
				t.Fatal(err)
			}
		}
	}
	probes := make([]query.Range, 20)
	for i := range probes {
		probes[i] = dataQuery(tab, rng)
	}
	same := func(label string) {
		t.Helper()
		for i, q := range probes {
			got, err := r.Estimate(key, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s, probe %d", label, i), got, want)
		}
	}

	feedback(12)
	if err := r.Evict(key); err != nil { // never checkpointed: writes
		t.Fatal(err)
	}
	same("after the first restore")
	files, seq := dirEntries(t, dir), ckptSeq(t, dir, key)
	before := met.Snapshot().Counters

	if err := r.Evict(key); err != nil {
		t.Fatal(err)
	}
	if n := dirEntries(t, dir); n != files || ckptSeq(t, dir, key) != seq {
		t.Fatalf("evicting a model that served only estimates left %d files (newest #%d), want %d (newest #%d)",
			n, ckptSeq(t, dir, key), files, seq)
	}
	after := met.Snapshot().Counters
	if d := after["registry.checkpoints_skipped"] - before["registry.checkpoints_skipped"]; d != 1 {
		t.Fatalf("registry.checkpoints_skipped rose by %d, want 1", d)
	}
	if d := after["registry.evictions"] - before["registry.evictions"]; d != 1 {
		t.Fatalf("registry.evictions rose by %d, want 1", d)
	}
	same("after the clean eviction")

	feedback(9)
	rows := clusterRows(rng, 24, 2)
	if err := r.IngestRows(key, rows); err != nil {
		t.Fatal(err)
	}
	if err := twinTab.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	drainIngest(t, r, key)
	feedback(9)
	same("after feedback and ingestion")
}

// TestEvictDirtyModelWrites: every change to a model's persisted state
// makes its next eviction write a file — one feedback, one ingested row,
// one ANALYZE — and so does a model that was never checkpointed, and one
// whose newest file fault.CheckpointCorrupt damaged. An eviction with no
// change since the last one writes nothing.
func TestEvictDirtyModelWrites(t *testing.T) {
	dir := t.TempDir()
	met := metrics.New()
	r := New(Config{CheckpointDir: dir, Metrics: met, SweepEvery: -1})
	defer r.Close()
	key := NewKey("t", 0, 1)
	tab := buildTable(t, 400, 2, 81)
	cfg := ingestCfg(3)
	cfg.Faults = fault.New(1, fault.Schedule{fault.CheckpointCorrupt: {At: []int{1}}})
	if err := r.Admit(key, tab, cfg, core.ServeConfig{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(82))
	probe := dataQuery(tab, rng)

	// evict evicts k, checks that it wrote a new file exactly when
	// wantWrite and that the counters agree, and restores k again.
	evict := func(k Key, label string, wantWrite bool) {
		t.Helper()
		before, seq := met.Snapshot().Counters, ckptSeq(t, dir, k)
		if err := r.Evict(k); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		after := met.Snapshot().Counters
		if wrote := ckptSeq(t, dir, k) > seq; wrote != wantWrite {
			t.Fatalf("%s: eviction wrote a file: %v, want %v", label, wrote, wantWrite)
		}
		wantSkipped := int64(1)
		if wantWrite {
			wantSkipped = 0
		}
		if d := after["registry.checkpoints_skipped"] - before["registry.checkpoints_skipped"]; d != wantSkipped {
			t.Fatalf("%s: registry.checkpoints_skipped rose by %d, want %d", label, d, wantSkipped)
		}
		if d := after["registry.evictions"] - before["registry.evictions"]; d != 1 {
			t.Fatalf("%s: registry.evictions rose by %d, want 1", label, d)
		}
		if _, err := r.Estimate(k, probe); err != nil {
			t.Fatalf("%s: restore: %v", label, err)
		}
	}

	// The first checkpoint is damaged as it is written; the eviction after
	// it must not mistake that file for the model's state.
	if err := r.CheckpointNow(key); err != nil {
		t.Fatal(err)
	}
	evict(key, "newest file corrupted", true)
	evict(key, "estimates only", false)

	fb := feedbackSet(t, tab, rng, 1)[0]
	if err := r.Feedback(key, fb.Query, fb.Actual); err != nil {
		t.Fatal(err)
	}
	evict(key, "one feedback", true)

	if err := r.IngestRows(key, clusterRows(rng, 1, 2)); err != nil {
		t.Fatal(err)
	}
	drainIngest(t, r, key)
	evict(key, "one ingested row", true)

	if err := r.Analyze(key, feedbackSet(t, tab, rng, 8)); err != nil {
		t.Fatal(err)
	}
	evict(key, "one ANALYZE", true)
	evict(key, "estimates only", false)

	fresh := NewKey("u", 0, 1)
	if err := r.Admit(fresh, buildTable(t, 200, 2, 83), buildCfg(4), core.ServeConfig{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	evict(fresh, "never checkpointed", true)
}

// TestServedCountSurvivesEviction: checkpoint frames do not carry the
// served-estimate count, so the registry banks each retired server's
// count. Status reports exactly the estimates each key served across
// clean and dirty evictions, restores and Close.
func TestServedCountSurvivesEviction(t *testing.T) {
	r := New(Config{MaxResident: 1, CheckpointDir: t.TempDir(), SweepEvery: -1})
	keys := []Key{NewKey("a", 0, 1), NewKey("b", 0, 1)}
	tabs := []*table.Table{buildTable(t, 300, 2, 91), buildTable(t, 300, 2, 92)}
	if err := r.Admit(keys[0], tabs[0], ingestCfg(1), core.ServeConfig{MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Admit(keys[1], tabs[1], core.Config{SampleSize: 64, Seed: 2}, core.ServeConfig{}); err != nil {
		t.Fatal(err)
	}
	served := map[string]int{}
	check := func(label string) {
		t.Helper()
		for _, st := range r.Status() {
			if st.Queries != served[st.Key.String()] {
				t.Fatalf("%s: Status reports %d estimates for %v, want %d", label, st.Queries, st.Key, served[st.Key.String()])
			}
		}
	}
	rng := rand.New(rand.NewSource(93))
	for i := 0; i < 240; i++ {
		k := rng.Intn(2)
		switch rng.Intn(8) {
		case 0:
			if err := r.Evict(keys[k]); err != nil {
				t.Fatal(err)
			}
		case 1:
			fb := feedbackSet(t, tabs[k], rng, 1)[0]
			if err := r.Feedback(keys[k], fb.Query, fb.Actual); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := r.Estimate(keys[k], dataQuery(tabs[k], rng)); err != nil {
				t.Fatal(err)
			}
			served[keys[k].String()]++
		}
	}
	check("after the mix")
	r.Close()
	check("after Close")
}

// TestLifecycleLockstep drives seeded random operation sequences through a
// registry with one resident slot (MaxResident 1) over two keys — an
// Adaptive model with ingestion attached and a Heuristic one — so every
// switch of key evicts one model and restores the other. Each key has a
// reference core.Estimator built from the same config over a twin table
// and called directly: serial, float64, exact erf, K=1, no coalescer.
// Every estimate must equal the reference's bit for bit, and every
// eviction, sweep and Close must write a checkpoint exactly when the key's
// persisted state changed since its newest checkpoint file.
func TestLifecycleLockstep(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runLockstep(t, seed, 300)
		})
	}
}

// lockKey is one key of the lockstep test and what the test expects of
// it.
type lockKey struct {
	key      Key
	tab      *table.Table // the registry model's table
	ref      *core.Estimator
	refTab   *table.Table
	adaptive bool
	// dirty: the persisted state changed since the newest checkpoint
	// file, or there is none yet.
	dirty   bool
	written int // checkpoint files written
	served  int // estimates served
}

// lockstepOps are the operations with their relative weights. Ingest
// operations apply only to the Adaptive key. Unlinking a file whose
// blocks reached the disk can cost far more than writing it (on a
// filesystem mounted with online discard, tens of milliseconds), so the
// weights keep checkpoint writes — every one of which is unlinked by
// rotation or by the test's cleanup — to a few dozen per sequence.
var lockstepOps = []struct {
	name   string
	weight int
}{
	{"estimate", 80}, {"feedback", 28}, {"feedback-batch", 10}, {"analyze", 4},
	{"ingest-rows", 20}, {"ingest-delete", 10}, {"checkpoint-now", 2},
	{"evict", 4}, {"sweep", 3},
}

// lockstepSwitch is the chance, per operation, that the sequence moves
// to the other key (evicting the one it leaves): 1 in lockstepSwitch.
const lockstepSwitch = 20

func runLockstep(t *testing.T, seed int64, nOps int) {
	dir := t.TempDir()
	met := metrics.New()
	r := New(Config{
		MaxResident:     1,
		CheckpointDir:   dir,
		CheckpointEvery: 1, // every Sweep checkpoints the resident model
		SweepEvery:      -1,
		Metrics:         met,
	})
	defer r.Close()
	mk := func(name string, tabSeed int64, cfg core.Config) *lockKey {
		k := &lockKey{
			key: NewKey(name, 0, 1), tab: buildTable(t, 300, 2, tabSeed), refTab: buildTable(t, 300, 2, tabSeed),
			adaptive: cfg.Mode == core.Adaptive, dirty: true,
		}
		var err error
		if k.ref, err = core.Build(k.refTab, cfg); err != nil {
			t.Fatal(err)
		}
		if err := r.Admit(k.key, k.tab, cfg, core.ServeConfig{MaxBatch: 1}); err != nil {
			t.Fatal(err)
		}
		return k
	}
	keys := []*lockKey{
		// Non-default optimizer options: an ANALYZE after a restore must
		// still run with them, so the checkpoint frame has to carry them.
		mk("adaptive", seed*10, core.Config{Mode: core.Adaptive, SampleSize: 64, Seed: seed,
			BatchOptions: bandwidth.OptimalConfig{SkipGlobal: true, MaxIterations: 5}}),
		mk("heuristic", seed*10+1, core.Config{Mode: core.Heuristic, SampleSize: 64, Seed: seed + 100}),
	}
	ad := keys[0]

	// The expected lifecycle, mirrored step by step.
	resident := 1 // admitting the heuristic model evicted the adaptive one
	evictions, skipped := 1, 0
	ad.written, ad.dirty = 1, false
	cut := func(k *lockKey) { // one conditional checkpoint of k
		if k.dirty {
			k.written++
		} else {
			skipped++
		}
		k.dirty = false
	}
	evicted := func(i int) {
		if resident == i {
			cut(keys[i])
			evictions++
			resident = -1
		}
	}
	use := func(i int) { // an operation that makes key i resident
		if resident != i {
			if resident >= 0 {
				evicted(resident)
			}
			resident = i
		}
	}
	if err := r.AttachIngest(ad.key, IngestOptions{AnalyzeMin: -1}); err != nil {
		t.Fatal(err)
	}
	use(0)

	total := 0
	for _, op := range lockstepOps {
		total += op.weight
	}
	rng := rand.New(rand.NewSource(seed))
	i := 0 // the key the sequence is on
	for step := 0; step < nOps; step++ {
		if rng.Intn(lockstepSwitch) == 0 {
			i = 1 - i
		}
		op := ""
		for op == "" || (strings.HasPrefix(op, "ingest") && !keys[i].adaptive) {
			w := rng.Intn(total)
			for _, o := range lockstepOps {
				if w < o.weight {
					op = o.name
					break
				}
				w -= o.weight
			}
		}
		k := keys[i]
		desc := fmt.Sprintf("seed %d, op %d (%s %v)", seed, step, op, k.key)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s: %s", desc, fmt.Sprintf(format, args...))
		}
		switch op {
		case "estimate":
			q := dataQuery(k.tab, rng)
			got, err := r.Estimate(k.key, q)
			if err != nil {
				fail("%v", err)
			}
			want, err := k.ref.Estimate(q)
			if err != nil {
				fail("reference: %v", err)
			}
			sameBits(t, desc, got, want)
			k.served++
			use(i)
		case "feedback":
			fb := feedbackSet(t, k.tab, rng, 1)[0]
			if err := r.Feedback(k.key, fb.Query, fb.Actual); err != nil {
				fail("%v", err)
			}
			if err := k.ref.Feedback(fb.Query, fb.Actual); err != nil {
				fail("reference: %v", err)
			}
			use(i)
			k.dirty = k.dirty || k.adaptive // a Heuristic model ignores feedback
		case "feedback-batch":
			fbs := feedbackSet(t, k.tab, rng, 1+rng.Intn(12))
			if err := r.FeedbackBatch(k.key, fbs); err != nil {
				fail("%v", err)
			}
			if err := k.ref.FeedbackBatch(fbs); err != nil {
				fail("reference: %v", err)
			}
			use(i)
			k.dirty = k.dirty || k.adaptive
		case "analyze":
			fbs := feedbackSet(t, k.tab, rng, 6)
			err, rerr := r.Analyze(k.key, fbs), k.ref.Reoptimize(fbs)
			if (err == nil) != (rerr == nil) {
				fail("ANALYZE returned %v, reference %v", err, rerr)
			}
			use(i)
			k.dirty = true
		case "ingest-rows":
			rows := clusterRows(rng, 1+rng.Intn(8), 2)
			if err := r.IngestRows(k.key, rows); err != nil {
				fail("%v", err)
			}
			if err := k.refTab.InsertMany(rows); err != nil {
				fail("reference: %v", err)
			}
			drainIngest(t, r, k.key)
			use(i)
			k.dirty = true
		case "ingest-delete":
			anchor := k.tab.Row(rng.Intn(k.tab.Len()))
			q := query.NewRange([]float64{anchor[0] - 0.2, anchor[1] - 0.2}, []float64{anchor[0] + 0.2, anchor[1] + 0.2})
			n, err := r.IngestDeleteWhere(k.key, q)
			if err != nil {
				fail("%v", err)
			}
			if m, err := k.refTab.DeleteWhere(q); err != nil || m != n {
				fail("deleted %d rows, reference %d (%v)", n, m, err)
			}
			drainIngest(t, r, k.key)
			use(i)
			k.dirty = k.dirty || n > 0
		case "checkpoint-now":
			if err := r.CheckpointNow(k.key); err != nil {
				fail("%v", err)
			}
			if resident == i { // a non-resident model is already on disk
				k.written++
				k.dirty = false
			}
		case "evict":
			if err := r.Evict(k.key); err != nil {
				fail("%v", err)
			}
			evicted(i)
		case "sweep":
			r.Sweep()
			if resident >= 0 {
				cut(keys[resident])
			}
		}
		for j, kk := range keys {
			if got := ckptSeq(t, dir, kk.key); got != kk.written {
				fail("%v has written %d checkpoint files, want %d", kk.key, got, kk.written)
			}
			if r.IsResident(kk.key) != (resident == j) {
				fail("%v resident: %v, want %v", kk.key, r.IsResident(kk.key), resident == j)
			}
		}
		c := met.Snapshot().Counters
		if c["registry.evictions"] != int64(evictions) || c["registry.checkpoints_skipped"] != int64(skipped) {
			fail("registry.evictions %d, checkpoints_skipped %d; want %d, %d",
				c["registry.evictions"], c["registry.checkpoints_skipped"], evictions, skipped)
		}
	}

	r.Close()
	if resident >= 0 {
		cut(keys[resident])
	}
	for _, k := range keys {
		if got := ckptSeq(t, dir, k.key); got != k.written {
			t.Fatalf("seed %d, Close: %v has written %d checkpoint files, want %d", seed, k.key, got, k.written)
		}
	}
	t.Logf("seed %d: %d evictions, %d checkpoint files written, %d passes skipped",
		seed, evictions, keys[0].written+keys[1].written, skipped)
	for _, st := range r.Status() {
		for _, k := range keys {
			if st.Key.String() == k.key.String() && (st.Queries != k.served || k.ref.Queries() != k.served) {
				t.Fatalf("seed %d: %v served %d estimates, Status reports %d, reference %d",
					seed, k.key, k.served, st.Queries, k.ref.Queries())
			}
		}
	}
}
