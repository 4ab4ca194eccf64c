package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/datagen"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// A workload is one traffic mix driven through the serving stack. build
// turns a seed into a fixture; the same seed always yields the same tables,
// models, query pools and per-client request streams, and the stack under
// test receives only the generated queries and rows.
type workloadDef struct {
	name  string
	why   string
	build func(seed int64, small bool) (*fixture, error)
}

var workloads = []workloadDef{
	{
		name:  "edge-small",
		why:   "eight resident d=2 s=1024 models under Zipf(1.2) routing: kernel work is tiny, so HTTP, admission, routing and the coalescer wait dominate",
		build: buildEdgeSmall,
	},
	{
		name:  "scan-large",
		why:   "one d=8 s=16384 model: each estimate streams 1 MiB of sample through 262k erf calls, so the kernel dominates and coalescing decides core use",
		build: buildScanLarge,
	},
	{
		name:  "learn-ingest",
		why:   "an adaptive d=4 model with feedback and open-loop ingest beside its estimates: writer lock, learner, karma, ingest ring and republish",
		build: buildLearnIngest,
	},
	{
		name:  "fleet-evict",
		why:   "16 d=4 models (every 4th sharded K=4) in 8 resident slots under Zipf(1.1), with periodic ANALYZE: eviction, restore and gather on the tail",
		build: buildFleetEvict,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// model is one model a fixture admits, with the estimate queries routed to
// it and their exact selectivities over its (static) table.
type model struct {
	key    registry.Key
	name   string // canonical key, as sent on the wire
	tab    *table.Table
	cfg    core.Config
	shards int // > 1: admitted with AdmitSharded
	pool   []query.Range
	truth  []float64
	bodies [][]byte // pre-encoded POST /estimate bodies, one per pool query
}

// fixture is a workload instantiated for one seed.
type fixture struct {
	name   string
	models []model
	// zipf is the key-routing skew; 0 routes every request to model 0.
	zipf float64
	// maxResident > 0 caps resident models and gives the registry a
	// checkpoint directory to evict into.
	maxResident int
	// verify re-runs a sampled subset of answers in-process after the load
	// and requires bit-identical results; only for workloads whose models
	// do not change while serving.
	verify bool
	ingest *ingestPlan  // learn-ingest: optimizer loop plus open-loop writer
	anlz   *analyzePlan // fleet-evict: periodic ANALYZE from client 0
}

// ingestPlan is learn-ingest's write side: batch rows every period, drawn
// in order (cyclically) from rows, which come from the same distribution as
// the base table so the drift detector stays quiet.
type ingestPlan struct {
	period time.Duration
	batch  int
	rows   [][]float64
	base   [][]float64 // the table's initial rows, for the truth mirror
}

// analyzePlan is fleet-evict's ANALYZE: after every `every` measured
// estimates, client 0 posts body (64 feedbacks for one model).
type analyzePlan struct {
	every int
	body  []byte
}

// estimateBody is the wire form of POST /estimate.
type estimateBody struct {
	Model string    `json:"model"`
	Lo    []float64 `json:"lo"`
	Hi    []float64 `json:"hi"`
}

// newModel builds the model of key over tab (the key's columns projected out
// of the base table), drawing its query pool — data-centred boxes covering
// 1% of the data space — and the pool's exact selectivities.
func newModel(key registry.Key, tab *table.Table, cfg core.Config, nq int, rng *rand.Rand) (model, error) {
	m := model{key: key, name: key.String(), tab: tab, cfg: cfg}
	var err error
	if m.pool, err = workload.Generate(tab, workload.DV, nq, workload.Config{}, rng); err != nil {
		return model{}, err
	}
	fbs, err := workload.TrueSelectivities(tab, m.pool)
	if err != nil {
		return model{}, err
	}
	m.truth = make([]float64, len(fbs))
	m.bodies = make([][]byte, len(fbs))
	for i, fb := range fbs {
		m.truth[i] = fb.Actual
		if m.bodies[i], err = json.Marshal(estimateBody{Model: m.name, Lo: fb.Query.Lo, Hi: fb.Query.Hi}); err != nil {
			return model{}, err
		}
	}
	return m, nil
}

// layoutSeed fixes the workloads' data layout: the cluster boxes of the
// synthetic population runs draw their rows from, and fleet-evict's column
// subsets. The layout is part of a workload's definition; the run seed
// picks the rows, queries, samples and request streams. Drawing the layout
// from the run seed as well makes every metric swing with the seed by more
// than a usable regression bound.
const layoutSeed = 20150531

// synthetic draws n rows without replacement from a 4n-row population of
// the clustered synthetic dataset in d dimensions with the fixed layout,
// returning them and a table holding the first keep rows.
func synthetic(rng *rand.Rand, n, keep, d int) ([][]float64, *table.Table, error) {
	pop := datagen.Synthetic(rand.New(rand.NewSource(layoutSeed)), 4*n, d, 10, 0.1).Rows
	rows := make([][]float64, n)
	for i, j := range rng.Perm(len(pop))[:n] {
		rows[i] = pop[j]
	}
	tab, err := table.New(d)
	if err != nil {
		return nil, nil, err
	}
	if err := tab.InsertMany(rows[:keep]); err != nil {
		return nil, nil, err
	}
	return rows, tab, nil
}

func allColumns(d int) []int {
	cols := make([]int, d)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// sizes picks the full benchmark size or the tiny one the harness tests use.
func sizes(small bool, full, tiny int) int {
	if small {
		return tiny
	}
	return full
}

func buildEdgeSmall(seed int64, small bool) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := sizes(small, 20000, 2000)
	_, base, err := synthetic(rng, rows, rows, 8)
	if err != nil {
		return nil, err
	}
	fx := &fixture{name: "edge-small", zipf: 1.2, verify: true}
	for i := 0; i < 8; i++ {
		cols := []int{i, (i + 1) % 8}
		proj, err := registry.Project(base, cols)
		if err != nil {
			return nil, err
		}
		// Batch mode trained on 100 uniform-centre 1%-volume queries.
		train, err := workload.Generate(proj, workload.UV, sizes(small, 100, 10), workload.Config{}, rng)
		if err != nil {
			return nil, err
		}
		fbs, err := workload.TrueSelectivities(proj, train)
		if err != nil {
			return nil, err
		}
		cfg := core.Config{Mode: core.Batch, SampleSize: sizes(small, 1024, 128), Training: fbs, Seed: seed + int64(i)}
		m, err := newModel(registry.NewKey("edge", cols...), proj, cfg, sizes(small, 256, 32), rng)
		if err != nil {
			return nil, err
		}
		fx.models = append(fx.models, m)
	}
	return fx, nil
}

func buildScanLarge(seed int64, small bool) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := sizes(small, 40000, 2000)
	_, tab, err := synthetic(rng, rows, rows, 8)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Mode: core.Heuristic, SampleSize: sizes(small, 16384, 256), Seed: seed}
	m, err := newModel(registry.NewKey("scan", allColumns(8)...), tab, cfg, sizes(small, 1024, 32), rng)
	if err != nil {
		return nil, err
	}
	return &fixture{name: "scan-large", models: []model{m}, verify: true}, nil
}

func buildLearnIngest(seed int64, small bool) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := sizes(small, 20000, 2000)
	// 16k spare rows: 16 s of the 1000 rows/s writer before it wraps.
	all, tab, err := synthetic(rng, rows+sizes(small, 16000, 2000), rows, 4)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Mode: core.Adaptive, SampleSize: sizes(small, 4096, 256), Seed: seed}
	m, err := newModel(registry.NewKey("learn", allColumns(4)...), tab, cfg, sizes(small, 1024, 32), rng)
	if err != nil {
		return nil, err
	}
	return &fixture{
		name:   "learn-ingest",
		models: []model{m},
		ingest: &ingestPlan{period: 4 * time.Millisecond, batch: 4, rows: all[rows:], base: all[:rows]},
	}, nil
}

func buildFleetEvict(seed int64, small bool) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := sizes(small, 20000, 2000)
	_, base, err := synthetic(rng, rows, rows, 8)
	if err != nil {
		return nil, err
	}
	fx := &fixture{name: "fleet-evict", zipf: 1.1, maxResident: 8}
	// 16 distinct 4-column subsets of the 8 columns, part of the layout.
	layout := rand.New(rand.NewSource(layoutSeed))
	seen := map[int]bool{}
	for len(fx.models) < 16 {
		mask := 0
		for _, c := range layout.Perm(8)[:4] {
			mask |= 1 << c
		}
		if seen[mask] {
			continue
		}
		seen[mask] = true
		var cols []int
		for c := 0; c < 8; c++ {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		proj, err := registry.Project(base, cols)
		if err != nil {
			return nil, err
		}
		i := len(fx.models)
		cfg := core.Config{Mode: core.Heuristic, SampleSize: sizes(small, 2048, 256), Seed: seed + int64(i)}
		m, err := newModel(registry.NewKey("fleet", cols...), proj, cfg, sizes(small, 128, 16), rng)
		if err != nil {
			return nil, err
		}
		// Every 4th model is sharded K=4. Sharded models serve without the
		// coalescer, so their share of the traffic (14% here) must stay well
		// away from half, or the median estimate would sit on the boundary
		// between the two latency modes and jump from run to run.
		if i%4 == 3 {
			m.shards = 4
		}
		fx.models = append(fx.models, m)
	}
	// ANALYZE the hottest sharded model over 64 fresh feedbacks. A sharded
	// model's optimization holds no model lock. ANALYZE of an unsharded
	// model holds its writer lock throughout, and a restore that picks that
	// model as its eviction victim waits out the whole ANALYZE to checkpoint
	// it: stalls of seconds and 504s, which no operation of a benchmark
	// workload may suffer.
	hot := fx.models[3]
	qs, err := workload.Generate(hot.tab, workload.DV, 64, workload.Config{}, rng)
	if err != nil {
		return nil, err
	}
	fbs, err := workload.TrueSelectivities(hot.tab, qs)
	if err != nil {
		return nil, err
	}
	type fbWire struct {
		Lo     []float64 `json:"lo"`
		Hi     []float64 `json:"hi"`
		Actual float64   `json:"actual"`
	}
	req := struct {
		Model    string   `json:"model"`
		Feedback []fbWire `json:"feedback"`
	}{Model: hot.name}
	for _, fb := range fbs {
		req.Feedback = append(req.Feedback, fbWire{Lo: fb.Query.Lo, Hi: fb.Query.Hi, Actual: fb.Actual})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	fx.anlz = &analyzePlan{every: sizes(small, 3000, 200), body: body}
	return fx, nil
}

// streamFor returns client c's deterministic request stream for seed: a
// function yielding (model, pool index) pairs, routed Zipf(fx.zipf) over
// the models when the fixture has several.
func (fx *fixture) streamFor(seed int64, c int) func() (int, int) {
	rng := rand.New(rand.NewSource(mix(seed, int64(c)+1)))
	var zipf *rand.Zipf
	if fx.zipf > 0 && len(fx.models) > 1 {
		zipf = rand.NewZipf(rng, fx.zipf, 1, uint64(len(fx.models)-1))
	}
	return func() (int, int) {
		k := 0
		if zipf != nil {
			k = int(zipf.Uint64())
		}
		return k, rng.Intn(len(fx.models[k].pool))
	}
}

// mix derives an independent seed for stream i from the run seed.
func mix(seed, i int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x & (1<<63 - 1))
}
