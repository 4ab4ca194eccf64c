package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/kde"
	"kdesel/internal/kernel"
	"kdesel/internal/mathx"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/shard"
	"kdesel/internal/table"
)

// tiers are the precision tiers of the kernel and kde rungs, in order.
var tiers = []string{"float64-exact", "float64-fast", "float32", "quantized"}

// sinkF keeps timed results alive so the compiler cannot drop the calls.
var sinkF float64

// ladder replays the workload's own query stream through the layers of
// the stack, bottom up, timing calls to public functions only:
//
//  1. mathx.Erf / FastErf / FastErf32 on the erf arguments of the stream;
//  2. kernel.GaussianMassFill* per tier over one sample column;
//  3. kde.Estimator.SelectivityBatch per tier, one query per call;
//  4. core.Server with MaxBatch 1;
//  5. core.Server with the default (coalescing) config;
//  6. registry.EstimateContext on the live stack;
//  7. shard.Group with K=4;
//  8. the loopback HTTP path of the live stack.
//
// Rungs 1–3 run on model 0 of the fixture (the hottest key); rungs 4–8 use
// the workload's two-client closed loop for rung each. A layer's cost is
// the difference between adjacent rungs. st must be idle.
func ladder(fx *fixture, st *stack, seed int64, dir string, rung time.Duration) (map[string]float64, error) {
	m := fx.models[0]
	tab, err := registry.Project(m.tab, allColumns(m.tab.Dims()))
	if err != nil {
		return nil, err
	}
	est, err := core.Build(tab, m.cfg)
	if err != nil {
		return nil, err
	}
	h := est.Bandwidth()
	d, s := est.Dims(), est.SampleSize()
	flat, err := m.tab.SampleFlat(s, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"kde.bytes_per_query":     float64(s * d * 8),
		"kde.erf_calls_per_query": float64(2 * s * d),
	}
	micro := rung / 8

	// Rungs 1 and 2: erf and the mass kernel on dimension 0 of the sample,
	// bounded by the stream's first queries.
	col := make([]float64, s)
	col32 := make([]float32, s)
	colQ := make([]int16, s)
	scale, off := kde.QuantConstants(flat, d)
	for i := range col {
		col[i] = flat[i*d]
		col32[i] = float32(col[i])
		code := math.Round((col[i] - float64(off[0])) / float64(scale[0]))
		colQ[i] = int16(math.Max(-32768, math.Min(32767, code)))
	}
	inv, _, _ := kernel.GaussianConsts(h[0])
	inv32 := kernel.GaussianInv32(h[0])
	qs := m.pool
	if len(qs) > 8 {
		qs = qs[:8]
	}
	var args []float64
	for _, q := range qs {
		for _, t := range col {
			args = append(args, (q.Hi[0]-t)*inv, (q.Lo[0]-t)*inv)
		}
	}
	args32 := make([]float32, len(args))
	for i, a := range args {
		args32[i] = float32(a)
	}
	out["mathx.erf_ns.exact"] = nsPer(micro, func() int {
		for _, a := range args {
			sinkF += mathx.Erf(a)
		}
		return len(args)
	})
	out["mathx.erf_ns.fast"] = nsPer(micro, func() int {
		for _, a := range args {
			sinkF += mathx.FastErf(a)
		}
		return len(args)
	})
	out["mathx.erf_ns.fast32"] = nsPer(micro, func() int {
		var acc float32
		for _, a := range args32 {
			acc += mathx.FastErf32(a)
		}
		sinkF += float64(acc)
		return len(args32)
	})
	dst := make([]float64, s)
	dst32 := make([]float32, s)
	fills := map[string]func(q query.Range){
		"float64-exact": func(q query.Range) { kernel.GaussianMassFill(dst, col, q.Lo[0], q.Hi[0], inv, false) },
		"float64-fast":  func(q query.Range) { kernel.GaussianMassFill(dst, col, q.Lo[0], q.Hi[0], inv, true) },
		"float32": func(q query.Range) {
			kernel.GaussianMassFill32(dst32, col32, float32(q.Lo[0]), float32(q.Hi[0]), inv32)
		},
		"quantized": func(q query.Range) {
			kernel.GaussianMassFillQ16(dst32, colQ, scale[0], off[0], float32(q.Lo[0]), float32(q.Hi[0]), inv32)
		},
	}
	for _, tier := range tiers {
		fill := fills[tier]
		out["kernel.mass_ns_per_row."+tier] = nsPer(micro, func() int {
			for _, q := range qs {
				fill(q)
			}
			sinkF += dst[0] + float64(dst32[0])
			return len(qs) * s
		})
	}

	// Rung 3: the kde estimator over the same sample and bandwidth.
	ke, err := kde.New(d, kernel.Gaussian{})
	if err != nil {
		return nil, err
	}
	if err := ke.SetSampleFlat(flat); err != nil {
		return nil, err
	}
	if err := ke.SetBandwidth(h); err != nil {
		return nil, err
	}
	defer mathx.SetMode(mathx.Exact)
	ests := make([]float64, 1)
	for _, tier := range tiers {
		switch tier {
		case "float64-exact", "float64-fast":
			ke.SetPrecision(mathx.Float64)
		case "float32":
			ke.SetPrecision(mathx.Float32)
		case "quantized":
			ke.SetPrecision(mathx.Quantized)
		}
		mode := mathx.Exact
		if tier == "float64-fast" {
			mode = mathx.Fast
		}
		mathx.SetMode(mode)
		i := 0
		var kerr error
		ns := nsPer(rung/4, func() int {
			if err := ke.SelectivityBatch(m.pool[i:i+1], ests); err != nil {
				kerr = err
			}
			i = (i + 1) % len(m.pool)
			sinkF += ests[0]
			return 1
		})
		mathx.SetMode(mathx.Exact)
		if kerr != nil {
			return nil, kerr
		}
		out["kde.query_us."+tier] = ns / 1e3
		out["kde.ns_per_row_dim."+tier] = ns / float64(s*d)
	}

	// Rungs 4 and 5: one model behind core.Server, uncoalesced then with
	// the default coalescer.
	ctx := context.Background()
	one := func(id int) func() (int, int) {
		rng := rand.New(rand.NewSource(mix(seed, 200+int64(id))))
		return func() (int, int) { return 0, rng.Intn(len(m.pool)) }
	}
	for _, r := range []struct {
		name string
		cfg  core.ServeConfig
	}{
		{"ladder.core_direct_us", core.ServeConfig{MaxBatch: 1}},
		{"ladder.core_coalesced_us", core.ServeConfig{}},
	} {
		srv := core.NewServer(est, r.cfg)
		us, err := closedLoop(rung, one, func(_, _, qi int) error {
			_, err := srv.EstimateContext(ctx, m.pool[qi])
			return err
		})
		srv.Close()
		srv.DetachFeed()
		if err != nil {
			return nil, err
		}
		out[r.name] = us
	}

	// Rung 6: registry routing on the live stack, all models.
	stream := func(id int) func() (int, int) { return fx.streamFor(mix(seed, 300), id) }
	if out["ladder.registry_us"], err = closedLoop(rung, stream, func(_, k, qi int) error {
		_, err := st.reg.EstimateContext(ctx, fx.models[k].key, fx.models[k].pool[qi])
		return err
	}); err != nil {
		return nil, err
	}

	// Rung 7: the same model sharded four ways.
	gtab, err := registry.Project(m.tab, allColumns(d))
	if err != nil {
		return nil, err
	}
	g, err := shard.Build(gtab, shard.Config{Shards: 4, SampleSize: s, Seed: m.cfg.Seed})
	if err != nil {
		return nil, err
	}
	out["ladder.shard_k4_us"], err = closedLoop(rung, one, func(_, _, qi int) error {
		_, err := g.EstimateContext(ctx, m.pool[qi])
		return err
	})
	g.Close()
	if err != nil {
		return nil, err
	}

	// Rung 8: the whole loopback HTTP path, estimate-only.
	conns := [2]*conn{newConn(st.url, nil), newConn(st.url, nil)}
	defer conns[0].close()
	defer conns[1].close()
	if out["ladder.http_us"], err = closedLoop(rung, stream, func(id, k, qi int) error {
		var ans estimateAnswer
		_, err := conns[id].post("estimate", fx.models[k].bodies[qi], &ans)
		return err
	}); err != nil {
		return nil, err
	}

	out["core.snapshot_us"] = out["ladder.core_direct_us"] - out["kde.query_us.float64-exact"]
	out["serve.coalesce_us"] = out["ladder.core_coalesced_us"] - out["ladder.core_direct_us"]
	out["registry.route_us"] = out["ladder.registry_us"] - out["ladder.core_coalesced_us"]
	out["shard.gather_us"] = out["ladder.shard_k4_us"] - out["ladder.core_direct_us"]

	// Checkpoint writes of the rung model, and table inserts of its rows.
	var writes []float64
	path := filepath.Join(dir, "ladder.ckpt")
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := est.Checkpoint(path); err != nil {
			return nil, err
		}
		writes = append(writes, ms(time.Since(start)))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	out["checkpoint.write_ms"] = median(writes)
	out["checkpoint.bytes_per_sample_byte"] = float64(fi.Size()) / float64(s*d*8)
	rows := make([][]float64, min(m.tab.Len(), 4096))
	for i := range rows {
		rows[i] = m.tab.Row(i)
	}
	var terr error
	out["table.insert_us_per_row"] = nsPer(micro, func() int {
		t, err := table.New(d)
		for i := 0; err == nil && i+4 <= len(rows); i += 4 {
			err = t.InsertMany(rows[i : i+4])
		}
		if err != nil {
			terr = err
		}
		return len(rows) / 4 * 4
	}) / 1e3
	return out, terr
}

// nsPer calls fn, which performs n operations per call, at least three
// times and until dur has passed, and returns the median ns per operation.
func nsPer(dur time.Duration, fn func() (n int)) float64 {
	var per []float64
	end := time.Now().Add(dur)
	for len(per) < 3 || time.Now().Before(end) {
		start := time.Now()
		n := fn()
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return median(per)
}

// closedLoop runs two closed-loop callers (id 0 and 1), each drawing
// (model, query) pairs from its own stream, for an untimed fifth of dur and
// then dur, and returns the median latency of the timed calls in µs. The
// untimed start keeps a fresh server's first calls (snapshot publication,
// cold caches) out of the rung.
func closedLoop(dur time.Duration, stream func(id int) func() (int, int), call func(id, k, qi int) error) (float64, error) {
	from := time.Now().Add(dur / 5)
	until := from.Add(dur)
	lat := make([][]float64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for id := range lat {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			next := stream(id)
			for time.Now().Before(until) {
				k, qi := next()
				start := time.Now()
				if err := call(id, k, qi); err != nil {
					errs[id] = err
					return
				}
				if !start.Before(from) {
					lat[id] = append(lat[id], float64(time.Since(start))/1e3)
				}
			}
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return median(append(lat[0], lat[1]...)), nil
}
