package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/httpserve"
	"kdesel/internal/metrics"
	"kdesel/internal/registry"
	"kdesel/internal/table"
)

// stack is one instance of the serving stack, wired the way cmd/kdesel
// serves: registry.New → httpserve.New → net/http on a loopback port, with
// production defaults (serial pool, float64, exact erf, default coalescer).
// A traced stack additionally carries a metrics registry and the span
// wrapper in front of the frontend.
type stack struct {
	reg  *registry.Registry
	fe   *httpserve.Server
	hs   *http.Server
	url  string
	met  *metrics.Registry // nil on untraced stacks
	dir  string            // checkpoint directory, removed by close
	done chan error        // the Serve goroutine's result

	// learn-ingest: the benchmark's mirror of the served table, for exact
	// selectivities, and how many spare rows the writer has sent.
	truth    *table.Table
	ingested int
}

// setup builds a stack for fx and returns it with its set-up time: from
// registry.New until the listener is up. The model tables are copied
// before the clock starts, so every stack starts from the fixture's data.
func (fx *fixture) setup(dir string, tr *tracer) (*stack, time.Duration, error) {
	tabs := make([]*table.Table, len(fx.models))
	for i, m := range fx.models {
		t, err := registry.Project(m.tab, allColumns(m.tab.Dims()))
		if err != nil {
			return nil, 0, err
		}
		tabs[i] = t
	}
	var truth *table.Table
	if fx.ingest != nil {
		var err error
		if truth, err = table.New(fx.models[0].tab.Dims()); err == nil {
			err = truth.InsertMany(fx.ingest.base)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	cfg := registry.Config{}
	if tr != nil {
		cfg.Metrics = metrics.New()
	}
	if fx.maxResident > 0 {
		cfg.MaxResident, cfg.CheckpointDir = fx.maxResident, dir
	}

	// Collect the previous set-up's garbage first, so no set-up pays for
	// another's collection.
	runtime.GC()
	start := time.Now()
	st := &stack{reg: registry.New(cfg), met: cfg.Metrics, dir: cfg.CheckpointDir, truth: truth}
	fail := func(err error) (*stack, time.Duration, error) {
		st.close()
		return nil, 0, err
	}
	for i, m := range fx.models {
		var err error
		if m.shards > 1 {
			err = st.reg.AdmitSharded(m.key, tabs[i], m.cfg, m.shards, core.ServeConfig{})
		} else {
			err = st.reg.Admit(m.key, tabs[i], m.cfg, core.ServeConfig{})
		}
		if err != nil {
			return fail(fmt.Errorf("admit %s: %w", m.name, err))
		}
	}
	if fx.ingest != nil {
		if err := st.reg.AttachIngest(fx.models[0].key, registry.IngestOptions{}); err != nil {
			return fail(err)
		}
	}
	fe, err := httpserve.New(httpserve.Config{Registry: st.reg, Metrics: cfg.Metrics})
	if err != nil {
		return fail(err)
	}
	st.fe = fe
	var h http.Handler = fe
	if tr != nil {
		h = tr.wrap(fe)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	st.hs = &http.Server{Handler: h}
	st.done = make(chan error, 1)
	go func() { st.done <- st.hs.Serve(ln) }()
	elapsed := time.Since(start)
	st.url = "http://" + ln.Addr().String()
	return st, elapsed, nil
}

// close stops the listener and waits for Serve to return, drains the
// frontend, closes the registry and removes the checkpoint directory.
func (st *stack) close() {
	if st.hs != nil {
		st.hs.Close()
		<-st.done
	}
	if st.fe != nil {
		st.fe.Close()
	}
	st.reg.Close()
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// conn is one client connection: its own transport holding at most one
// keep-alive connection, so n clients never open more than n connections.
type conn struct {
	url string
	hc  *http.Client
	tr  *tracer // nil: send no span header
}

func newConn(url string, tr *tracer) *conn {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{url: url, hc: &http.Client{Transport: t}, tr: tr}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// post sends body to /op and decodes a 2xx JSON answer into out (when
// non-nil). It returns the round-trip time; any transport error or non-2xx
// status is an error. On a traced connection the request carries a root
// span id the server-side wrapper parents its span to.
func (c *conn) post(op string, body []byte, out any) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+"/"+op, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	if c.tr != nil {
		id = c.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if c.tr != nil {
		c.tr.record(id, 0, "client."+op, start, start.Add(rtt))
	}
	if err != nil {
		return rtt, err
	}
	if resp.StatusCode/100 != 2 {
		return rtt, fmt.Errorf("%s: HTTP %d: %s", op, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return rtt, fmt.Errorf("%s: decode answer: %w", op, err)
		}
	}
	return rtt, nil
}

// tally is what the clients of one pass observed. Latencies are in ms.
// Requests count toward attempted/ok/failed only inside the measured
// window; sent counts every request, for the server accounting check.
type tally struct {
	sent, attempted, ok, failed int
	outOfRange                  int // estimates not finite or outside [0,1]

	estMs, qerr []float64
	estAt       []float64 // completion of each estimate, s into the window
	fbMs        []float64 // learn-ingest feedback round trips
	ingMs       []float64 // learn-ingest ingests, from their due time
	lateMs      float64   // worst lateness of the ingest generator
	lagMax      int       // largest ingest lag an ingest answer reported
	restoreMs   []float64 // traced only: estimates whose model was evicted
	analyzes    int
	answers     []answer // sampled answers for the bit-identity re-check
	errs        []string
}

// answer is one sampled estimate: model, pool index, and the value served.
type answer struct {
	model, idx int
	est        float64
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.outOfRange += o.outOfRange
	t.estMs = append(t.estMs, o.estMs...)
	t.estAt = append(t.estAt, o.estAt...)
	t.qerr = append(t.qerr, o.qerr...)
	t.fbMs = append(t.fbMs, o.fbMs...)
	t.ingMs = append(t.ingMs, o.ingMs...)
	t.lateMs = math.Max(t.lateMs, o.lateMs)
	if o.lagMax > t.lagMax {
		t.lagMax = o.lagMax
	}
	t.restoreMs = append(t.restoreMs, o.restoreMs...)
	t.analyzes += o.analyzes
	t.answers = append(t.answers, o.answers...)
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// estimate records one estimate answer that completed at the given offset
// into the measured window: range check, latency and q-error.
func (t *tally) estimate(est, truth float64, rows int, rtt, at time.Duration) {
	t.ok++
	if !(est >= 0 && est <= 1) {
		t.outOfRange++
		return
	}
	t.estMs = append(t.estMs, ms(rtt))
	t.estAt = append(t.estAt, at.Seconds())
	t.qerr = append(t.qerr, qerror(est, truth, rows))
}

// p99 is the median, over windows of at least 1000 consecutive estimates
// in completion order (at most 20 windows), of each window's nearest-rank
// p99, refused like percentile when a window has fewer than beyond samples
// above it: one stall on a shared host then inflates one window's tail
// instead of the whole figure.
func (t *tally) p99(beyond int) (float64, error) {
	n := len(t.estMs)
	k := min(n/1000, 20)
	if k <= 1 {
		return percentile(t.estMs, 99, beyond)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return t.estAt[order[i]] < t.estAt[order[j]] })
	per := make([]float64, k)
	for w := range per {
		var xs []float64
		for _, i := range order[w*n/k : (w+1)*n/k] {
			xs = append(xs, t.estMs[i])
		}
		v, err := percentile(xs, 99, beyond)
		if err != nil {
			return 0, err
		}
		per[w] = v
	}
	return summarize(per).Median, nil
}

// qps is the median, over one window per whole second of the measured time,
// of the estimates completed per second: a transient stall on a shared
// host then moves one window instead of the whole figure.
func (t *tally) qps(measure time.Duration) float64 {
	n := max(1, int(measure/time.Second))
	w := measure.Seconds() / float64(n)
	counts := make([]float64, n)
	for _, at := range t.estAt {
		if i := int(at / w); i >= 0 && i < n {
			counts[i]++
		}
	}
	return summarize(counts).Median / w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pass drives one stack with the fixture's clients: a warm-up of warm,
// then a measured window of measure. Every workload uses two client
// connections, one per core of the reference host.
type pass struct {
	fx          *fixture
	st          *stack
	seed        int64
	tr          *tracer
	start, from time.Time // pass start; measured window start
	until       time.Time
}

type estimateAnswer struct {
	Selectivity float64 `json:"selectivity"`
}

func (fx *fixture) drive(st *stack, seed int64, warm, measure time.Duration, tr *tracer) (*tally, error) {
	p := &pass{fx: fx, st: st, seed: seed, tr: tr, start: time.Now()}
	p.from = p.start.Add(warm)
	p.until = p.from.Add(measure)
	clients := []func(*conn, *tally){
		func(c *conn, t *tally) { p.estimates(c, 0, t) },
		func(c *conn, t *tally) { p.estimates(c, 1, t) },
	}
	if fx.ingest != nil {
		clients = []func(*conn, *tally){p.optimizer, p.writer}
	}
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i, run := range clients {
		wg.Add(1)
		go func(i int, run func(*conn, *tally)) {
			defer wg.Done()
			c := newConn(st.url, tr)
			defer c.close()
			run(c, &tallies[i])
		}(i, run)
	}
	wg.Wait()
	total := &tallies[0]
	for i := 1; i < len(tallies); i++ {
		total.merge(&tallies[i])
	}
	return total, nil
}

// estimates is a closed-loop estimate client: the next request leaves when
// the previous answer arrives. On fleet-evict, client 0 also posts an
// ANALYZE after every anlz.every measured estimates.
func (p *pass) estimates(c *conn, id int, t *tally) {
	next := p.fx.streamFor(p.seed, id)
	pick := rand.New(rand.NewSource(mix(p.seed, 100+int64(id))))
	measured := 0
	for time.Now().Before(p.until) {
		k, qi := next()
		m := &p.fx.models[k]
		rec := !time.Now().Before(p.from)
		cold := p.tr != nil && !p.st.reg.IsResident(m.key)
		var ans estimateAnswer
		rtt, err := c.post("estimate", m.bodies[qi], &ans)
		t.sent++
		if !rec {
			continue
		}
		t.attempted++
		measured++
		if err != nil {
			t.fail(err)
			continue
		}
		t.estimate(ans.Selectivity, m.truth[qi], m.tab.Len(), rtt, time.Since(p.from))
		if cold {
			t.restoreMs = append(t.restoreMs, ms(rtt))
		}
		if p.fx.verify && pick.Intn(64) == 0 {
			t.answers = append(t.answers, answer{model: k, idx: qi, est: ans.Selectivity})
		}
		if a := p.fx.anlz; a != nil && id == 0 && measured%a.every == 0 {
			t.sent++
			t.attempted++
			if _, err := c.post("analyze", a.body, nil); err != nil {
				t.fail(err)
			} else {
				t.ok++
				t.analyzes++
			}
		}
	}
}

// feedbackBody is the wire form of POST /feedback.
type feedbackBody struct {
	Model  string    `json:"model"`
	Lo     []float64 `json:"lo"`
	Hi     []float64 `json:"hi"`
	Actual float64   `json:"actual"`
}

// optimizer is learn-ingest's query optimizer: estimate, execute the query
// (the exact selectivity over the mirrored table, untimed), send feedback.
func (p *pass) optimizer(c *conn, t *tally) {
	next := p.fx.streamFor(p.seed, 0)
	m := &p.fx.models[0]
	for time.Now().Before(p.until) {
		_, qi := next()
		rec := !time.Now().Before(p.from)
		var ans estimateAnswer
		rtt, err := c.post("estimate", m.bodies[qi], &ans)
		t.sent++
		if rec {
			t.attempted++
		}
		if err != nil {
			if rec {
				t.fail(err)
			}
			continue
		}
		q := m.pool[qi]
		truth, err := p.st.truth.Selectivity(q)
		if err != nil {
			t.fail(err)
			return
		}
		if rec {
			t.estimate(ans.Selectivity, truth, p.st.truth.Len(), rtt, time.Since(p.from))
		}
		body, err := json.Marshal(feedbackBody{Model: m.name, Lo: q.Lo, Hi: q.Hi, Actual: truth})
		if err != nil {
			t.fail(err)
			return
		}
		rtt, err = c.post("feedback", body, nil)
		t.sent++
		if !rec {
			continue
		}
		t.attempted++
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok++
		t.fbMs = append(t.fbMs, ms(rtt))
	}
}

// ingestBody and ingestAnswer are the wire forms of POST /ingest.
type ingestBody struct {
	Model string      `json:"model"`
	Rows  [][]float64 `json:"rows"`
}

type ingestAnswer struct {
	Lag int `json:"lag"`
}

// writer is learn-ingest's open-loop writer: one batch of rows is due every
// period from the pass start whether or not the last one has returned, and
// each ingest is timed from its due time, so a stall also charges the
// writes queued behind it.
func (p *pass) writer(c *conn, t *tally) {
	plan := p.fx.ingest
	name := p.fx.models[0].name
	for i := 0; ; i++ {
		due := p.start.Add(time.Duration(i) * plan.period)
		if !due.Before(p.until) {
			return
		}
		time.Sleep(time.Until(due))
		rows := make([][]float64, plan.batch)
		for j := range rows {
			rows[j] = plan.rows[p.st.ingested%len(plan.rows)]
			p.st.ingested++
		}
		body, err := json.Marshal(ingestBody{Model: name, Rows: rows})
		if err != nil {
			t.fail(err)
			return
		}
		sent := time.Now()
		var ans ingestAnswer
		_, err = c.post("ingest", body, &ans)
		done := time.Now()
		t.sent++
		if err == nil {
			if err := p.st.truth.InsertMany(rows); err != nil {
				t.fail(err)
				return
			}
		}
		if due.Before(p.from) {
			continue
		}
		t.attempted++
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok++
		t.ingMs = append(t.ingMs, ms(done.Sub(due)))
		t.lateMs = math.Max(t.lateMs, ms(sent.Sub(due)))
		if ans.Lag > t.lagMax {
			t.lagMax = ans.Lag
		}
	}
}
