package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/metrics"
	"kdesel/internal/registry"
	"kdesel/internal/table"
)

// buildTable makes a d-dimensional clustered table with n rows.
func buildTable(t testing.TB, n, d int, seed int64) *table.Table {
	t.Helper()
	tab, err := table.New(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		center := float64(rng.Intn(3)) * 5
		for j := range row {
			row[j] = center + rng.NormFloat64()
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// testStack stands up a registry with one admitted 2-d model ("t(0,1)") and
// an httpserve.Server over it.
func testStack(t *testing.T, cfg Config) (*Server, *registry.Registry, registry.Key) {
	t.Helper()
	reg := registry.New(registry.Config{Metrics: cfg.Metrics})
	t.Cleanup(reg.Close)
	key := registry.NewKey("t", 0, 1)
	tab := buildTable(t, 400, 2, 11)
	err := reg.Admit(key, tab, core.Config{Mode: core.Heuristic, SampleSize: 128, Seed: 7, DisableMaintenance: true}, core.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, reg, key
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func errCode(t *testing.T, b []byte) string {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("non-JSON error body %q: %v", b, err)
	}
	return er.Code
}

func TestEstimateEndpoint(t *testing.T) {
	s, _, key := testStack(t, Config{DefaultModel: "t(0,1)"})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Happy path with an explicit model.
	resp, b := postJSON(t, ts.URL+"/estimate", `{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var er estimateResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if er.Model != key.String() || er.Selectivity < 0 || er.Selectivity > 1 {
		t.Fatalf("response = %+v", er)
	}

	// The configured default model serves requests that omit "model".
	resp, b = postJSON(t, ts.URL+"/estimate", `{"lo":[-2,-2],"hi":[8,8]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default model: status = %d, body %s", resp.StatusCode, b)
	}

	// Error taxonomy.
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown model", `{"model":"nope(0,1)","lo":[0,0],"hi":[1,1]}`, http.StatusNotFound, "unknown_model"},
		{"invalid query dims", `{"model":"t(0,1)","lo":[0],"hi":[1]}`, http.StatusBadRequest, "invalid_query"},
		{"inverted bounds", `{"model":"t(0,1)","lo":[2,2],"hi":[1,1]}`, http.StatusBadRequest, "invalid_query"},
		{"malformed json", `{"lo":[0,0]`, http.StatusBadRequest, "bad_request"},
		{"unparseable key", `{"model":"zzz","lo":[0,0],"hi":[1,1]}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		resp, b := postJSON(t, ts.URL+"/estimate", tc.body)
		if resp.StatusCode != tc.status || errCode(t, b) != tc.code {
			t.Errorf("%s: status=%d code=%s body=%s, want %d %s", tc.name, resp.StatusCode, errCode(t, b), b, tc.status, tc.code)
		}
	}
}

func TestFeedbackAndAnalyzeEndpoints(t *testing.T) {
	s, _, _ := testStack(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, b := postJSON(t, ts.URL+"/feedback", `{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8],"actual":0.5}`)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("feedback status = %d, body %s", resp.StatusCode, b)
	}

	// Sync ANALYZE over a tiny feedback batch.
	var fb strings.Builder
	fb.WriteString(`{"model":"t(0,1)","feedback":[`)
	for i := 0; i < 6; i++ {
		if i > 0 {
			fb.WriteByte(',')
		}
		fmt.Fprintf(&fb, `{"lo":[%d,-3],"hi":[%d,9],"actual":0.3}`, -3+i, 3+i)
	}
	fb.WriteString(`]}`)
	resp, b = postJSON(t, ts.URL+"/analyze?sync=1", fb.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync analyze status = %d, body %s", resp.StatusCode, b)
	}

	// Async ANALYZE answers 202.
	resp, b = postJSON(t, ts.URL+"/analyze", fb.String())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async analyze status = %d, body %s", resp.StatusCode, b)
	}
}

func TestProbesAndMetrics(t *testing.T) {
	met := metrics.New()
	s, _, _ := testStack(t, Config{Metrics: met})
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp, b := get("/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	var ready struct {
		Status string        `json:"status"`
		Models []readyzModel `json:"models"`
	}
	if err := json.Unmarshal(b, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ok" || len(ready.Models) != 1 || ready.Models[0].Health != "healthy" {
		t.Fatalf("readyz body = %s", b)
	}

	// One estimate, then the snapshot served by /metrics must show it.
	postJSON(t, ts.URL+"/estimate", `{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`)
	resp, b = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["http.accepted"] != 1 {
		t.Fatalf("http.accepted = %d in /metrics, want 1 (body %s)", snap.Counters["http.accepted"], b)
	}

	resp, b = get("/models")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte("t(0,1)")) {
		t.Fatalf("/models = %d %s", resp.StatusCode, b)
	}
}

// TestModelsReportLifetimeQueries: GET /models and /readyz report every
// estimate a model served since admission, across evictions and
// restores, whether or not the model is resident now.
func TestModelsReportLifetimeQueries(t *testing.T) {
	reg := registry.New(registry.Config{MaxResident: 1, CheckpointDir: t.TempDir(), SweepEvery: -1})
	t.Cleanup(reg.Close)
	keys := []registry.Key{registry.NewKey("a", 0, 1), registry.NewKey("b", 0, 1)}
	for i, k := range keys {
		tab := buildTable(t, 300, 2, int64(20+i))
		if err := reg.Admit(k, tab, core.Config{SampleSize: 64, Seed: int64(i)}, core.ServeConfig{MaxBatch: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s)
	defer ts.Close()

	want := map[string]int{}
	for i := 0; i < 15; i++ {
		k := keys[i%3%2] // a, b, a, a, b, a, ...: every switch evicts
		body := fmt.Sprintf(`{"model":%q,"lo":[-2,-2],"hi":[8,8]}`, k.String())
		if resp, b := postJSON(t, ts.URL+"/estimate", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %v: %d %s", k, resp.StatusCode, b)
		}
		want[k.String()]++
		if i%4 == 3 {
			if err := reg.Evict(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, path := range []string{"/models", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Models []readyzModel `json:"models"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || len(got.Models) != len(keys) {
			t.Fatalf("GET %s: %+v (%v)", path, got, err)
		}
		for _, m := range got.Models {
			if m.Queries != want[m.Model] {
				t.Fatalf("GET %s: %s reports %d queries, want %d", path, m.Model, m.Queries, want[m.Model])
			}
		}
	}
}

// TestShedWhenSaturated fills every in-flight slot and the whole wait queue
// white-box, then checks the next request is shed instantly with 429 and
// both Retry-After headers, and that a queued request whose deadline expires
// gets 504.
func TestShedWhenSaturated(t *testing.T) {
	met := metrics.New()
	s, _, _ := testStack(t, Config{Metrics: met, MaxInFlight: 1, MaxQueue: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the only in-flight slot directly.
	s.tokens <- struct{}{}
	defer func() { <-s.tokens }()

	// One request parks in the wait queue (it will time out at its own
	// deadline and answer 504 deadline).
	queued := make(chan struct {
		status int
		code   string
	}, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/estimate?timeout_ms=400", "application/json",
			strings.NewReader(`{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		var er errorResponse
		_ = json.Unmarshal(b, &er)
		queued <- struct {
			status int
			code   string
		}{resp.StatusCode, er.Code}
	}()
	for s.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Queue is now full: the next request must shed immediately.
	start := time.Now()
	resp, b := postJSON(t, ts.URL+"/estimate", `{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`)
	shedLat := time.Since(start)
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, b) != "shed" {
		t.Fatalf("saturated: status=%d body=%s, want 429 shed", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get(RetryAfterMsHeader) == "" {
		t.Error("shed response lacks Retry-After headers")
	}
	if shedLat > time.Second {
		t.Errorf("shed rejection took %v; shedding must be fast", shedLat)
	}

	// The queued request's deadline expires while it waits.
	select {
	case out := <-queued:
		if out.status != http.StatusGatewayTimeout || out.code != "deadline" {
			t.Fatalf("queued request: status=%d code=%s, want 504 deadline", out.status, out.code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never completed")
	}

	snap := met.Snapshot()
	if snap.Counters["http.shed"] != 1 || snap.Counters["http.deadline_expired"] != 1 {
		t.Fatalf("counters = shed:%d deadline:%d, want 1/1",
			snap.Counters["http.shed"], snap.Counters["http.deadline_expired"])
	}
}

func TestDrain(t *testing.T) {
	s, _, _ := testStack(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, b := postJSON(t, ts.URL+"/estimate", `{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, b) != "draining" {
		t.Fatalf("post-drain estimate: %d %s", resp.StatusCode, b)
	}
	r2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz = %d, want 503", r2.StatusCode)
	}
	r3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("post-drain healthz = %d, want 200 (alive, not ready)", r3.StatusCode)
	}
	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestNetworkChaosAccountingExact drives concurrent clients through a
// saturated frontend with all three network faults injected and proves the
// accounting identity at the heart of the PR: every issued request resolves
// to exactly one of accepted / shed / failed, the server's accepted counter
// equals the clients' received-result count (nothing lost, nothing
// double-counted), and injected faults surface as failures, never as
// phantom acceptances.
func TestNetworkChaosAccountingExact(t *testing.T) {
	met := metrics.New()
	inj := fault.New(42, fault.Schedule{
		fault.NetDrop:  {Every: 17},
		fault.NetError: {Every: 13},
		fault.NetDelay: {Every: 5, Delay: 2 * time.Millisecond},
	})
	s, _, _ := testStack(t, Config{Metrics: met, MaxInFlight: 2, MaxQueue: 2, Faults: inj})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const clients = 8
	const perClient = 40
	var accepted, shed, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &http.Client{}
			for i := 0; i < perClient; i++ {
				resp, err := cl.Post(ts.URL+"/estimate?timeout_ms=2000", "application/json",
					strings.NewReader(`{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`))
				if err != nil {
					failed.Add(1) // dropped connection
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	issued := int64(clients * perClient)
	if got := accepted.Load() + shed.Load() + failed.Load(); got != issued {
		t.Fatalf("accepted(%d) + shed(%d) + failed(%d) = %d, want %d issued",
			accepted.Load(), shed.Load(), failed.Load(), got, issued)
	}
	snap := met.Snapshot()
	if got := snap.Counters["http.accepted"]; got != accepted.Load() {
		t.Errorf("server accepted %d, clients received %d results (must match exactly)", got, accepted.Load())
	}
	if got := snap.Counters["http.shed"]; got != shed.Load() {
		t.Errorf("server shed %d, clients saw %d rejections", got, shed.Load())
	}
	if inj.Fired(fault.NetDrop) == 0 || inj.Fired(fault.NetError) == 0 || inj.Fired(fault.NetDelay) == 0 {
		t.Errorf("chaos points did not all fire: drop=%d 5xx=%d delay=%d",
			inj.Fired(fault.NetDrop), inj.Fired(fault.NetError), inj.Fired(fault.NetDelay))
	}
	if got := snap.Counters["http.injected_drops"]; got != int64(inj.Fired(fault.NetDrop)) {
		t.Errorf("injected_drops = %d, injector fired %d", got, inj.Fired(fault.NetDrop))
	}
	// Overload alone sheds; only an injected drop or 5xx fails a request.
	if want := int64(inj.Fired(fault.NetDrop) + inj.Fired(fault.NetError)); failed.Load() != want {
		t.Errorf("failed = %d, want the %d injected drops and 5xx", failed.Load(), want)
	}
	// Model-side accounting: the estimator must have evaluated exactly the
	// accepted requests.
	if got := snap.Counters["http.requests"]; got != issued {
		t.Errorf("http.requests = %d, want %d", got, issued)
	}
}

// TestDeadlinePropagatesToModel checks the 504 path end to end: with every
// in-flight slot free but the model's writer wedged (serialize mode), a
// deadline-bound request fails fast with 504 instead of parking.
func TestDeadlinePropagatesToModel(t *testing.T) {
	reg := registry.New(registry.Config{})
	defer reg.Close()
	key := registry.NewKey("t", 0, 1)
	tab := buildTable(t, 4000, 2, 3)
	// SerializeEstimates + no coalescer: every estimate needs the writer
	// mutex, so a long writer blocks the estimate path — the worst case
	// deadline propagation exists for.
	err := reg.Admit(key, tab, core.Config{Mode: core.Adaptive, SampleSize: 2048, Seed: 7, DisableMaintenance: true},
		core.ServeConfig{MaxBatch: -1, SerializeEstimates: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Wedge the writer with a large synchronous feedback batch, which the
	// model folds in under one hold of its writer lock, then race a
	// deadline-bound estimate against it.
	var fb strings.Builder
	fb.WriteString(`{"model":"t(0,1)","feedback":[`)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		if i > 0 {
			fb.WriteByte(',')
		}
		a := rng.Float64()*6 - 3
		fmt.Fprintf(&fb, `{"lo":[%.3f,%.3f],"hi":[%.3f,%.3f],"actual":0.2}`, a, a, a+2, a+2)
	}
	fb.WriteString(`]}`)
	feedbackDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/feedback?timeout_ms=120000", fb.String())
		feedbackDone <- resp.StatusCode
	}()

	for {
		select {
		case code := <-feedbackDone:
			t.Fatalf("feedback batch finished (status %d) before a deadline-bound estimate saw a 504", code)
		default:
		}
		resp, b := postJSON(t, ts.URL+"/estimate?timeout_ms=30", `{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`)
		if resp.StatusCode == http.StatusGatewayTimeout {
			if code := errCode(t, b); code != "deadline" {
				t.Fatalf("504 with code %s", code)
			}
			break
		}
	}
	if code := <-feedbackDone; code != http.StatusNoContent {
		t.Fatalf("feedback batch: status %d, want 204", code)
	}
}

func TestNewRequiresRegistry(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil registry")
	}
	if _, err := New(Config{Registry: registry.New(registry.Config{}), DefaultModel: "bad"}); err == nil {
		t.Fatal("New accepted an unparseable DefaultModel")
	}
}

// TestShardedEstimateEndpoint drives a sharded model through the HTTP
// scatter/gather path: a healthy gather answers with degraded unset, an
// injected single-shard failure answers 200 with the renormalized survivor
// estimate and degraded:true, readiness reports the Degraded rung with the
// shard count, and an all-shards failure maps to 503 shards_failed.
func TestShardedEstimateEndpoint(t *testing.T) {
	reg := registry.New(registry.Config{})
	t.Cleanup(reg.Close)
	key := registry.NewKey("t", 0, 1)
	tab := buildTable(t, 400, 2, 11)
	// Shard attempts count per gather in shard-index order: the first
	// gather draws attempts 1 (shard 0) and 2 (shard 1), the second 3 and
	// 4, and so on. Attempt 4 fails one shard of gather #2; attempts 5 and
	// 6 fail both shards of gather #3.
	inj := fault.New(1, fault.Schedule{fault.ShardFail: {At: []int{4, 5, 6}}})
	err := reg.AdmitSharded(key, tab, core.Config{SampleSize: 512, Seed: 7, Faults: inj}, 2, core.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"model":"t(0,1)","lo":[-2,-2],"hi":[8,8]}`

	// Gather #1: all shards answer.
	resp, b := postJSON(t, ts.URL+"/estimate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy gather: status = %d, body %s", resp.StatusCode, b)
	}
	var er estimateResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if er.Degraded {
		t.Fatalf("healthy gather reported degraded: %+v", er)
	}
	healthy := er.Selectivity

	// Gather #2: one shard fails; the request still answers 200 from the
	// renormalized survivors and is flagged degraded.
	resp, b = postJSON(t, ts.URL+"/estimate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded gather: status = %d, body %s", resp.StatusCode, b)
	}
	er = estimateResponse{}
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded {
		t.Fatalf("degraded gather not flagged: %+v", er)
	}
	if er.Selectivity <= 0 || er.Selectivity > 1 {
		t.Fatalf("degraded selectivity %v implausible (healthy was %v)", er.Selectivity, healthy)
	}

	// Readiness reflects the Degraded health rung and the shard count.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	var ready struct {
		Status string        `json:"status"`
		Models []readyzModel `json:"models"`
	}
	if err := json.Unmarshal(rb, &ready); err != nil {
		t.Fatalf("readyz body %s: %v", rb, err)
	}
	if ready.Status != "degraded" {
		t.Fatalf("readyz status = %q after shard loss, want degraded (body %s)", ready.Status, rb)
	}
	if len(ready.Models) != 1 || ready.Models[0].Shards != 2 {
		t.Fatalf("readyz models = %+v, want one model with 2 shards", ready.Models)
	}

	// Gather #3: every shard fails; nothing to renormalize over.
	resp, b = postJSON(t, ts.URL+"/estimate", body)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, b) != "shards_failed" {
		t.Fatalf("all-shards failure: status=%d code=%s body=%s, want 503 shards_failed",
			resp.StatusCode, errCode(t, b), b)
	}

	// Gather #4: the injector is exhausted; service recovers (health stays
	// Degraded — the rung is monotone — but estimates flow undegraded).
	resp, b = postJSON(t, ts.URL+"/estimate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault gather: status = %d, body %s", resp.StatusCode, b)
	}
	er = estimateResponse{}
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if er.Degraded {
		t.Fatalf("post-fault gather still degraded: %+v", er)
	}
	if er.Selectivity != healthy {
		t.Fatalf("post-fault selectivity %v != healthy %v (determinism)", er.Selectivity, healthy)
	}
}

func TestIngestEndpoint(t *testing.T) {
	s, reg, key := testStack(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Rows flow through the bridge; the response reports counts and lag.
	resp, b := postJSON(t, ts.URL+"/ingest", `{"model":"t(0,1)","rows":[[1,2],[3,4]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: %d %s", resp.StatusCode, b)
	}
	var ir struct {
		Model    string `json:"model"`
		Inserted int    `json:"inserted"`
		Deleted  int    `json:"deleted"`
		Lag      int    `json:"lag"`
	}
	if err := json.Unmarshal(b, &ir); err != nil {
		t.Fatalf("bad body %q: %v", b, err)
	}
	if ir.Model != key.String() || ir.Inserted != 2 {
		t.Fatalf("response %+v: want model %s inserted 2", ir, key)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := reg.IngestStats(key)
		if ok && st.Depth == 0 && st.Applied == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested rows never applied: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// A delete region uses the same endpoint.
	resp, b = postJSON(t, ts.URL+"/ingest", `{"model":"t(0,1)","delete_lo":[0.5,1.5],"delete_hi":[1.5,2.5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest delete: %d %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Deleted < 1 {
		t.Fatalf("response %+v: delete region covering an ingested row removed nothing", ir)
	}

	// Validation: wrong row width, empty body, unknown model.
	resp, b = postJSON(t, ts.URL+"/ingest", `{"model":"t(0,1)","rows":[[1,2,3]]}`)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, b) != "invalid_row" {
		t.Fatalf("3-wide row on 2-d model: %d %s", resp.StatusCode, b)
	}
	resp, b = postJSON(t, ts.URL+"/ingest", `{"model":"t(0,1)"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ingest body: %d %s", resp.StatusCode, b)
	}
	resp, b = postJSON(t, ts.URL+"/ingest", `{"model":"nope(0)","rows":[[1]]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d %s", resp.StatusCode, b)
	}

	// readyz reports the ingestion state without degrading at zero lag.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz: %d %s", rresp.StatusCode, rb)
	}
	var rz struct {
		Status string `json:"status"`
		Models []struct {
			Ingesting bool `json:"ingesting"`
			IngestLag int  `json:"ingest_lag"`
		} `json:"models"`
	}
	if err := json.Unmarshal(rb, &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Status != "ok" || len(rz.Models) != 1 || !rz.Models[0].Ingesting {
		t.Fatalf("readyz %s: want ok with one ingesting model", rb)
	}
}
