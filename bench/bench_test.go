package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"kdesel/internal/table"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile must sort
		}
		return out
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		refuse bool
	}{
		{n: 100, p: 50, want: 50},
		{n: 100, p: 90, want: 90},     // rank 90, exactly 10 beyond
		{n: 100, p: 99, refuse: true}, // rank 99, 1 beyond
		{n: 1000, p: 99, want: 990},
		{n: 999, p: 99, refuse: true}, // rank 990, 9 beyond
		{n: 3, p: 50, want: 2},
		{n: 0, p: 50, refuse: true},
	} {
		got, err := percentile(xs(c.n), c.p, minBeyond)
		if c.p == 50 && c.n > 0 {
			got, err = percentile(xs(c.n), c.p, 0)
		}
		if c.refuse {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

// TestP99IsMedianOfWindows checks that a stall confined to one window of
// estimates sets that window's p99 but not the reported one.
func TestP99IsMedianOfWindows(t *testing.T) {
	var tl tally
	for i := 0; i < 3000; i++ {
		v := 1.0
		if i < 100 { // a stall in the first of three 1000-estimate windows
			v = 50
		}
		// Completion times out of order across the two clients' lists.
		tl.estMs = append(tl.estMs, v)
		tl.estAt = append(tl.estAt, float64(i))
	}
	tl.estMs[0], tl.estMs[2999] = tl.estMs[2999], tl.estMs[0]
	tl.estAt[0], tl.estAt[2999] = tl.estAt[2999], tl.estAt[0]
	if all, _ := percentile(tl.estMs, 99, minBeyond); all != 50 {
		t.Fatalf("p99 over all samples = %v, want the stall's 50", all)
	}
	if got, err := tl.p99(minBeyond); err != nil || got != 1 {
		t.Fatalf("windowed p99 = %v, %v; want 1", got, err)
	}
	short := tally{estMs: tl.estMs[:999], estAt: tl.estAt[:999]}
	if _, err := short.p99(minBeyond); err == nil {
		t.Fatal("p99 of 999 estimates was reported, want refusal")
	}
}

func TestQErrorFloor(t *testing.T) {
	for _, c := range []struct {
		est, truth float64
		rows       int
		want       float64
	}{
		{0.2, 0.1, 100, 2},
		{0.1, 0.2, 100, 2},
		{0, 0, 1000, 1},          // empty query answered 0: both floor to 1/rows
		{0.5, 0, 1000, 500},      // empty query: truth floors to 0.001
		{0, 0.01, 1000, 10},      // zero estimate floors to 0.001
		{0.0004, 0.0009, 100, 1}, // both under the 1/rows floor
	} {
		if got := qerror(c.est, c.truth, c.rows); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("qerror(%v, %v, %d) = %v, want %v", c.est, c.truth, c.rows, got, c.want)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("summarize(1..10) = %+v, want q1 2.75 median 5.5 q3 8.25", s)
	}
	if want := (8.25 - 2.75) / 5.5; s.Rel != want {
		t.Fatalf("relative spread %v, want %v", s.Rel, want)
	}
}

// TestOpenLoopTimesFromDueTime stalls one ingest and checks that the
// writers due during the stall are charged from their due time, not from
// when the stalled generator got round to sending them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"lag":0}`))
	}))
	defer srv.Close()

	period := 5 * time.Millisecond
	rows := [][]float64{{0.5}}
	fx := &fixture{models: []model{{name: "t(0)"}}, ingest: &ingestPlan{period: period, batch: 1, rows: rows}}
	truth, err := table.New(1)
	if err != nil {
		t.Fatal(err)
	}
	p := &pass{fx: fx, st: &stack{truth: truth}, start: time.Now()}
	p.from = p.start
	p.until = p.start.Add(150 * time.Millisecond)
	var tl tally
	c := newConn(srv.URL, nil)
	defer c.close()
	p.writer(c, &tl)

	if tl.failed != 0 || tl.ok != tl.attempted || tl.attempted != int(150*time.Millisecond/period) {
		t.Fatalf("attempted %d ok %d failed %d (%v), want %d all ok", tl.attempted, tl.ok, tl.failed, tl.errs, 150*time.Millisecond/period)
	}
	// The request due right after the stalled one waited out most of the
	// stall before it could be sent.
	if got := tl.ingMs[3]; got < ms(stall-2*period) {
		t.Errorf("ingest due during the stall took %.2f ms from its due time, want ≥ %.2f", got, ms(stall-2*period))
	}
	if tl.lateMs < ms(stall-2*period) {
		t.Errorf("generator lateness %.2f ms, want ≥ %.2f", tl.lateMs, ms(stall-2*period))
	}
}

func TestStreamsDeterministicBySeed(t *testing.T) {
	draw := func(fx *fixture, seed int64) [][2]int {
		var out [][2]int
		for c := 0; c < 2; c++ {
			next := fx.streamFor(seed, c)
			for i := 0; i < 200; i++ {
				k, q := next()
				out = append(out, [2]int{k, q})
			}
		}
		return out
	}
	for _, w := range workloads {
		a, err := w.build(7, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.build(7, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i := range a.models {
			if !reflect.DeepEqual(a.models[i].bodies, b.models[i].bodies) || !reflect.DeepEqual(a.models[i].truth, b.models[i].truth) {
				t.Errorf("%s: model %d queries differ between two builds with one seed", w.name, i)
			}
		}
		if !reflect.DeepEqual(draw(a, 7), draw(b, 7)) {
			t.Errorf("%s: key/query streams differ for one seed", w.name)
		}
		if reflect.DeepEqual(draw(a, 7), draw(a, 8)) && len(a.models[0].pool) > 1 {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload with tiny models, untraced and
// traced, and checks that each reports every metric it declares, so the
// names later changes compare against stay stable.
func TestSmokeAllWorkloads(t *testing.T) {
	if _, err := os.Stat(buildDir); os.IsNotExist(err) {
		defer os.RemoveAll(buildDir)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, measure: 150 * time.Millisecond, warm: 30 * time.Millisecond,
				setups: 1, rung: 30 * time.Millisecond, small: true, trace: traced}
			r, err := run(w, o, host{})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(r.problems) > 0 || r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d problems %v", w.name, traced, r.attempted, r.failed, r.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			line := r.line()
			for _, d := range want {
				if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: result line has %s = %+v", w.name, traced, d.name, m)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.name, traced, len(line.Metrics), len(want))
			}
		}
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json, which the repository
// root declares the benchmark with, in step with the metrics and workloads
// this program reports.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q", i, w, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound ||
			!nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, d := range endToEnd {
		if d.name == "setup_s" && d.bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", d.bound, maxBound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
