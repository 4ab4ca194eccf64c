// Command bench is the serving benchmark: it starts the real serving stack
// in-process (registry → httpserve → net/http on a loopback port), drives
// it over HTTP with the workload's two clients, checks the answers, and
// prints every metric as "workload metric value unit" followed by one JSON
// result line. See README.md for the workloads, metrics and trace mode.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload edge-small --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1           # every workload
//	bash bench/run.sh --workload scan-large --trace 1   # per-layer metrics
//	bash bench/run.sh --workload all --runs 3           # repeatability
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"kdesel/internal/metrics"
)

// buildDir holds everything a run writes: checkpoints, traces, results.
const buildDir = ".bench_build"

// maxSetups caps the set-ups of one run.
const maxSetups = 101

// options configure one run of one workload.
type options struct {
	seed    int64
	measure time.Duration // measured window (split in two when tracing)
	warm    time.Duration // untimed warm-up before each measured window
	setups  int           // least set-ups per run; setup_s is their median
	// setupBudget is how long the set-up loop repeats set-ups beyond the
	// first setups (at most maxSetups in all).
	setupBudget time.Duration
	rung        time.Duration // duration of each closed-loop ladder rung
	small       bool          // tiny models and tables (harness tests)
	beyond      int           // samples required above a reported percentile
	trace       bool
	traceOut    string // trace file; "" writes none
}

func defaultOptions(seed int64, seconds float64) options {
	return options{
		seed:        seed,
		measure:     time.Duration(seconds * float64(time.Second)),
		warm:        2 * time.Second,
		setups:      3,
		setupBudget: time.Second,
		rung:        time.Second,
		beyond:      minBeyond,
	}
}

// result is one run's outcome.
type result struct {
	workload  string
	metrics   map[string]float64
	defs      []metricDef
	attempted int
	failed    int
	problems  []string // failed self-checks; any makes the run incorrect
	notes     []string // informational lines, printed with a "#"
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// jsonLine is the final line of a run's standard output.
type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line() jsonLine {
	l := jsonLine{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs {
		l.Metrics[d.name] = jsonMetric{Value: r.metrics[d.name], Unit: d.unit}
	}
	return l
}

func main() {
	var (
		wl      = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; spans go to "+buildDir+"/trace-<workload>.json")
		runs    = flag.Int("runs", 1, "repeat each workload this many times (seeds seed, seed+1, ...) and print each metric's median, quartiles and spread")
		out     = flag.String("out", "", "also write the results as JSON to this file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 || *runs < 1 {
		fatalf("--seconds and --runs must be positive")
	}
	var sel []workloadDef
	if *wl == "all" {
		sel = workloads
	} else if w, ok := workloadByName(*wl); ok {
		sel = []workloadDef{w}
	} else {
		fatalf("unknown workload %q", *wl)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	h := hostFacts()
	fmt.Printf("# host %s\n", h)

	ok := true
	summary := map[string]map[string]spread{}
	// record is one run in the --out file.
	type record struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Result   jsonLine `json:"result"`
	}
	var records []record
	for _, w := range sel {
		vals := map[string][]float64{}
		var res *result
		for i := 0; i < *runs; i++ {
			opts := defaultOptions(*seed+int64(i), *seconds)
			if *trace == 1 {
				opts.trace = true
				opts.traceOut = filepath.Join(buildDir, "trace-"+w.name+".json")
			}
			var err error
			if res, err = run(w, opts, h); err != nil {
				fatalf("%s: %v", w.name, err)
			}
			printResult(res)
			records = append(records, record{Workload: w.name, Seed: opts.seed, Result: res.line()})
			ok = ok && len(res.problems) == 0
			for name, v := range res.metrics {
				vals[name] = append(vals[name], v)
			}
		}
		if *runs > 1 {
			summary[w.name] = printSpreads(w.name, res.defs, vals)
		}
	}
	if *out != "" {
		doc := map[string]any{"host": h, "seconds": *seconds, "runs": records}
		if *runs > 1 {
			doc["spread"] = summary
		}
		if err := writeJSON(*out, doc); err != nil {
			fatalf("%v", err)
		}
	}
	if *runs > 1 {
		// The last line stays one JSON object: here, the spread summary.
		b, _ := json.Marshal(map[string]any{"correct": ok, "spread": summary})
		fmt.Println(string(b))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func printResult(r *result) {
	for _, n := range r.notes {
		fmt.Printf("# %s %s\n", r.workload, n)
	}
	for _, d := range r.defs {
		fmt.Printf("%s %s %s %s\n", r.workload, d.name, fmt.Sprint(r.metrics[d.name]), d.unit)
	}
	fmt.Printf("%s attempted %d\n%s failed %d\n", r.workload, r.attempted, r.workload, r.failed)
	for _, p := range r.problems {
		fmt.Printf("# %s SELF-CHECK FAILED: %s\n", r.workload, p)
	}
	l, _ := json.Marshal(r.line())
	fmt.Println(string(l))
}

// printSpreads prints, per metric, the median, quartiles and relative
// spread over the repeated runs, and whether the spread stays under a
// third of the metric's regression bound.
func printSpreads(workload string, defs []metricDef, vals map[string][]float64) map[string]spread {
	out := map[string]spread{}
	for _, d := range defs {
		s := summarize(vals[d.name])
		out[d.name] = s
		verdict := ""
		if d.bound > 0 {
			verdict = "ok"
			if s.Rel > d.bound/3 {
				verdict = "WIDE"
			}
			verdict = fmt.Sprintf(" bound %.2f %s", d.bound, verdict)
		}
		fmt.Printf("# spread %s %s median %v q1 %v q3 %v rel %.4f%s\n", workload, d.name,
			s.Median, s.Q1, s.Q3, s.Rel, verdict)
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// host records the facts a reader needs to compare runs across machines.
// Timer100usP50 is the measured median of a 100 µs time.Timer: the
// coalescer's fill deadline (serve.DefaultMaxWait, 100 µs) really lasts
// this long on the host.
type host struct {
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	Timer100usP50 float64 `json:"timer_100us_p50_ms"`
}

func (h host) String() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s cpu=%q timer_100us_p50_ms=%.3f",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Timer100usP50)
}

func hostFacts() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	var waits []float64
	for i := 0; i < 101; i++ {
		start := time.Now()
		<-time.NewTimer(100 * time.Microsecond).C
		waits = append(waits, ms(time.Since(start)))
	}
	h.Timer100usP50 = median(waits)
	return h
}

// run runs one workload once: untraced, it reports the end-to-end metrics;
// traced, the per-layer ones.
func run(w workloadDef, o options, h host) (*result, error) {
	fx, err := w.build(o.seed, o.small)
	if err != nil {
		return nil, fmt.Errorf("build fixture: %w", err)
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.trace {
		return runTraced(fx, o, dir, h)
	}
	return runUntraced(fx, o, dir)
}

func runUntraced(fx *fixture, o options, dir string) (*result, error) {
	r := &result{workload: fx.name, defs: endToEnd, metrics: map[string]float64{}}
	// Set up at least o.setups times, and again while the loop has run for
	// less than o.setupBudget (at most maxSetups times): a set-up of a few
	// ms is then the median of many.
	var setups, heaps []float64
	var st *stack
	for begin := time.Now(); st == nil; {
		s, took, err := fx.setup(filepath.Join(dir, fmt.Sprint("ckpt-", len(setups))), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		heaps = append(heaps, heapMiB())
		if len(setups) >= o.setups && (time.Since(begin) >= o.setupBudget || len(setups) >= maxSetups) {
			st = s
		} else {
			s.close()
		}
	}
	t, err := fx.drive(st, o.seed, o.warm, o.measure, nil)
	if err != nil {
		st.close()
		return nil, err
	}
	verify(r, fx, st, t)
	st.close()

	r.metrics["setup_s"] = summarize(setups).Median
	r.metrics["heap_mb"] = summarize(heaps).Median
	r.metrics["qps"] = t.qps(o.measure)
	r.pct("estimate_p50_ms", t.estMs, 50, 0)
	if v, err := t.p99(o.beyond); err != nil {
		r.problem("estimate_p99_ms: %v", err)
	} else {
		r.metrics["estimate_p99_ms"] = v
	}
	r.pct("qerror_p50", t.qerr, 50, 0)
	r.pct("qerror_p90", t.qerr, 90, o.beyond)
	r.tallyNotes(t)
	return r, nil
}

// pct sets metric name to the p-th percentile of xs, or records why the
// sample cannot support it.
func (r *result) pct(name string, xs []float64, p float64, beyond int) {
	v, err := percentile(xs, p, beyond)
	if err != nil {
		r.problem("%s: %v", name, err)
	}
	r.metrics[name] = v
}

// verify runs the self-checks that need only the tally and the live stack.
func verify(r *result, fx *fixture, st *stack, t *tally) {
	r.attempted, r.failed = t.attempted, t.failed
	if t.attempted != t.ok+t.failed {
		r.problem("attempted %d != ok %d + failed %d", t.attempted, t.ok, t.failed)
	}
	if t.attempted == 0 {
		r.problem("no requests completed in the measured window")
	}
	if t.outOfRange > 0 {
		r.problem("%d estimates were not finite or outside [0,1]", t.outOfRange)
	}
	for _, e := range t.errs {
		r.notes = append(r.notes, "request error: "+e)
	}
	mismatch := 0
	for _, a := range t.answers {
		m := fx.models[a.model]
		v, err := st.reg.Estimate(m.key, m.pool[a.idx])
		if err != nil || math.Float64bits(v) != math.Float64bits(a.est) {
			mismatch++
		}
	}
	if mismatch > 0 {
		r.problem("%d of %d sampled answers differ from registry.Estimate re-run in-process", mismatch, len(t.answers))
	}
	if fx.verify {
		r.notes = append(r.notes, fmt.Sprintf("re-checked %d sampled answers bit for bit", len(t.answers)))
	}
}

func (r *result) tallyNotes(t *tally) {
	r.notes = append(r.notes, fmt.Sprintf("estimates %d, error_rate %g", len(t.estMs), float64(t.failed)/float64(max(t.attempted, 1))))
	if len(t.fbMs) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("feedback p50 %.4f ms over %d", median(t.fbMs), len(t.fbMs)))
	}
	if len(t.ingMs) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("ingest from due time p50 %.4f ms over %d, generator late by at most %.4f ms",
			median(t.ingMs), len(t.ingMs), t.lateMs))
	}
	if t.analyzes > 0 {
		r.notes = append(r.notes, fmt.Sprintf("analyze requests %d", t.analyzes))
	}
}

func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// runTraced is the traced run: an untraced pass of half the measured time
// (the reference for the tracing overhead and the write-side latencies),
// the ladder on that idle stack, then a fresh stack with spans and a
// metrics registry attached for the other half.
func runTraced(fx *fixture, o options, dir string, h host) (*result, error) {
	r := &result{workload: fx.name, defs: perLayer, metrics: map[string]float64{}}
	half := o.measure / 2
	st, _, err := fx.setup(filepath.Join(dir, "ckpt-plain"), nil)
	if err != nil {
		return nil, err
	}
	plain, err := fx.drive(st, o.seed, o.warm, half, nil)
	if err == nil {
		verify(r, fx, st, plain)
		var lad map[string]float64
		if lad, err = ladder(fx, st, o.seed, dir, o.rung); err == nil {
			for k, v := range lad {
				r.metrics[k] = v
			}
		}
	}
	st.close()
	if err != nil {
		return nil, err
	}
	if len(plain.fbMs) > 0 {
		r.pct("feedback.p50_ms", plain.fbMs, 50, 0)
		r.pct("feedback.p99_ms", plain.fbMs, 99, o.beyond)
	}
	if len(plain.ingMs) > 0 {
		r.pct("ingest.p99_ms", plain.ingMs, 99, o.beyond)
		r.metrics["ingest.late_ms"] = plain.lateMs
	}

	tr := newTracer(fx.name)
	st, _, err = fx.setup(filepath.Join(dir, "ckpt-traced"), tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	built := st.met.Snapshot()
	r.metrics["bandwidth.build_s"] = histSum(built, "bandwidth.optimize_seconds", nil)
	// Warm up untraced, so the spans and counter deltas cover exactly the
	// measured window; the stack (and learn-ingest's table) carries over.
	if _, err := fx.drive(st, o.seed, o.warm, 0, nil); err != nil {
		return nil, err
	}
	before := st.met.Snapshot()
	traced, err := fx.drive(st, o.seed, 0, half, tr)
	if err != nil {
		return nil, err
	}
	after := st.met.Snapshot()
	if sent, served := traced.sent, after.Counters["http.requests"]-before.Counters["http.requests"]; int64(sent) != served {
		r.problem("traced pass sent %d requests but the server counted %d", sent, served)
	}
	if traced.attempted != traced.ok+traced.failed {
		r.problem("traced attempted %d != ok %d + failed %d", traced.attempted, traced.ok, traced.failed)
	}
	if traced.outOfRange > 0 {
		r.problem("%d traced estimates were not finite or outside [0,1]", traced.outOfRange)
	}
	r.attempted += traced.attempted
	r.failed += traced.failed

	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	self := selfTimes(spans)
	r.metrics["wire.overhead_us"] = median(self["client.estimate"])
	r.metrics["httpserve.handler_us"] = median(self["httpserve.estimate"])
	r.metrics["httpserve.non2xx"] = float64(tr.non2xx.Load())
	r.metrics["registry.evictions"] = float64(after.Counters["registry.evictions"] - before.Counters["registry.evictions"])
	r.metrics["registry.restores"] = float64(after.Counters["registry.restores"] - before.Counters["registry.restores"])
	r.metrics["registry.restore_ms"] = median(traced.restoreMs)
	r.metrics["registry.analyze_s"] = histMean(before, after, "bandwidth.optimize_seconds")
	r.metrics["serve.wait_us"] = histMean(before, after, "serve.wait_seconds") * 1e6
	r.metrics["serve.avg_batch"] = histMean(before, after, "serve.batch_size")
	r.metrics["core.feedback_us"] = histMean(before, after, "core.feedback_seconds") * 1e6
	for _, c := range []string{"core.minibatch_updates", "core.karma_replacements", "core.snapshot_swaps",
		"ingest.republish_saved", "ingest.blocked"} {
		r.metrics[c] = float64(counterSum(after, c) - counterSum(before, c))
	}
	if batches := counterSum(after, "ingest.batches") - counterSum(before, "ingest.batches"); batches > 0 {
		r.metrics["ingest.rows_per_apply"] = float64(counterSum(after, "ingest.applied")-counterSum(before, "ingest.applied")) / float64(batches)
	}
	r.metrics["ingest.lag_max"] = float64(traced.lagMax)
	if q := float64(len(plain.estMs)); q > 0 {
		r.metrics["trace.qps_ratio"] = float64(len(traced.estMs)) / q
		r.metrics["trace.p50_ratio"] = median(traced.estMs) / median(plain.estMs)
	}
	r.notes = append(r.notes, fmt.Sprintf("tracing overhead: qps %.1f traced vs %.1f untraced, estimate p50 %.4f ms vs %.4f ms",
		float64(len(traced.estMs))/half.Seconds(), float64(len(plain.estMs))/half.Seconds(), median(traced.estMs), median(plain.estMs)))
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	selfMed := map[string]float64{}
	for _, n := range names {
		selfMed[n] = median(self[n])
		r.notes = append(r.notes, fmt.Sprintf("self time %s p50 %.2f us over %d spans", n, selfMed[n], len(self[n])))
	}
	if o.traceOut != "" {
		moves := map[string]string{}
		for _, d := range perLayer {
			moves[d.name] = d.moves
		}
		doc := map[string]any{"host": h, "workload": fx.name, "seed": o.seed, "self_us_p50": selfMed,
			"metrics": r.metrics, "moves": moves, "spans": spans}
		if err := writeJSON(o.traceOut, doc); err != nil {
			return nil, err
		}
		r.notes = append(r.notes, "trace written to "+o.traceOut)
	}
	return r, nil
}

// counterSum adds every counter whose name is suffix or ends in "."+suffix,
// i.e. the same instrument across all model namespaces.
func counterSum(s metrics.Snapshot, suffix string) int64 {
	var n int64
	for name, v := range s.Counters {
		if name == suffix || strings.HasSuffix(name, "."+suffix) {
			n += v
		}
	}
	return n
}

// histSum adds the sums of the matching histograms (see counterSum),
// minus their sums in base when base is non-nil.
func histSum(s metrics.Snapshot, suffix string, base *metrics.Snapshot) float64 {
	total := 0.0
	for name, h := range s.Histograms {
		if name == suffix || strings.HasSuffix(name, "."+suffix) {
			total += h.Sum
			if base != nil {
				total -= base.Histograms[name].Sum
			}
		}
	}
	return total
}

// histMean is the mean observation of the matching histograms between two
// snapshots; 0 when nothing was observed.
func histMean(before, after metrics.Snapshot, suffix string) float64 {
	var n int64
	for name, h := range after.Histograms {
		if name == suffix || strings.HasSuffix(name, "."+suffix) {
			n += h.Count - before.Histograms[name].Count
		}
	}
	if n == 0 {
		return 0
	}
	return histSum(after, suffix, &before) / float64(n)
}
