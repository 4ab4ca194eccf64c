package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdesel/internal/metrics"
	"kdesel/internal/query"
)

// areaEval is a deterministic stand-in evaluator: the "estimate" of a query
// is its 1-D interval length, so every caller can verify it got the result
// for its own query and not a neighbour's.
func areaEval(calls, total *atomic.Int64) EvalFunc {
	return func(qs []query.Range, ests []float64) error {
		if calls != nil {
			calls.Add(1)
		}
		if total != nil {
			total.Add(int64(len(qs)))
		}
		for i, q := range qs {
			ests[i] = q.Hi[0] - q.Lo[0]
		}
		return nil
	}
}

func q1(w float64) query.Range {
	return query.NewRange([]float64{0}, []float64{w})
}

func TestDisabledConfigReturnsNil(t *testing.T) {
	for _, mb := range []int{1, -1} {
		if b := New(areaEval(nil, nil), Config{MaxBatch: mb}); b != nil {
			b.Close()
			t.Errorf("MaxBatch=%d: got live batcher, want nil (disabled)", mb)
		}
	}
	var b *Batcher
	b.Close() // nil Close must be a no-op
}

func TestDefaults(t *testing.T) {
	b := New(areaEval(nil, nil), Config{})
	defer b.Close()
	if got := b.MaxBatch(); got != DefaultMaxBatch {
		t.Errorf("MaxBatch = %d, want %d", got, DefaultMaxBatch)
	}
	if got := b.MaxWait(); got != DefaultMaxWait {
		t.Errorf("MaxWait = %v, want %v", got, DefaultMaxWait)
	}
}

// TestEachCallerGetsOwnResult hammers the batcher with concurrent callers
// carrying distinct queries and checks every caller receives exactly its
// own evaluation.
func TestEachCallerGetsOwnResult(t *testing.T) {
	var calls, total atomic.Int64
	b := New(areaEval(&calls, &total), Config{MaxBatch: 8, MaxWait: 50 * time.Microsecond})
	defer b.Close()

	const callers = 64
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := float64(c + 1)
			for r := 0; r < rounds; r++ {
				got, err := b.Estimate(q1(want))
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("caller %d got %v, want %v", c, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if total.Load() != callers*rounds {
		t.Errorf("evaluated %d queries, want %d", total.Load(), callers*rounds)
	}
	// With 64 callers racing into batches of 8, coalescing must have
	// merged at least some requests: strictly fewer eval calls than
	// queries. (A scheduler that never batches would do one call each.)
	if calls.Load() >= callers*rounds {
		t.Errorf("eval calls = %d for %d queries: no coalescing happened", calls.Load(), callers*rounds)
	}
}

// TestBatchSizeCapped verifies no evaluation exceeds MaxBatch even when the
// queue holds far more requests than one batch.
func TestBatchSizeCapped(t *testing.T) {
	const maxBatch = 4
	var maxSeen atomic.Int64
	block := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	eval := func(qs []query.Range, ests []float64) error {
		once.Do(func() { close(first) })
		<-block // hold the scheduler so the queue piles up
		if n := int64(len(qs)); n > maxSeen.Load() {
			maxSeen.Store(n)
		}
		for i, q := range qs {
			ests[i] = q.Hi[0] - q.Lo[0]
		}
		return nil
	}
	b := New(eval, Config{MaxBatch: maxBatch, MaxWait: time.Microsecond, Queue: 64})
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Estimate(q1(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	<-first      // scheduler is now blocked inside eval; queue fills behind it
	close(block) // release; remaining requests must drain in ≤ maxBatch chunks
	wg.Wait()
	b.Close()
	if maxSeen.Load() > maxBatch {
		t.Errorf("largest batch = %d, want ≤ %d", maxSeen.Load(), maxBatch)
	}
}

// TestErrorBroadcast checks a failing evaluation reports the same error to
// every member of the batch.
func TestErrorBroadcast(t *testing.T) {
	boom := errors.New("boom")
	eval := func(qs []query.Range, ests []float64) error { return boom }
	b := New(eval, Config{MaxBatch: 8, MaxWait: 200 * time.Microsecond})
	defer b.Close()

	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Estimate(q1(1)); !errors.Is(err, boom) {
				t.Errorf("err = %v, want boom", err)
			}
		}()
	}
	wg.Wait()
}

// TestCloseDrainsAndRejects: Close must serve everything already accepted,
// then reject new callers with ErrClosed — and never deadlock either side.
func TestCloseDrainsAndRejects(t *testing.T) {
	var total atomic.Int64
	b := New(areaEval(nil, &total), Config{MaxBatch: 8, MaxWait: 100 * time.Microsecond})

	const callers = 32
	var wg sync.WaitGroup
	var served, rejected atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := b.Estimate(q1(2))
			switch {
			case errors.Is(err, ErrClosed):
				rejected.Add(1)
			case err != nil:
				t.Errorf("unexpected error: %v", err)
			case got != 2:
				t.Errorf("got %v, want 2", got)
			default:
				served.Add(1)
			}
		}()
	}
	b.Close() // races the callers on purpose
	wg.Wait()
	if served.Load()+rejected.Load() != callers {
		t.Errorf("served %d + rejected %d != %d callers", served.Load(), rejected.Load(), callers)
	}
	if total.Load() != served.Load() {
		t.Errorf("evaluator saw %d queries but %d callers were served", total.Load(), served.Load())
	}
	if _, err := b.Estimate(q1(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Estimate after Close: err = %v, want ErrClosed", err)
	}
	b.Close() // repeated Close must be safe
}

// TestCloseDrainsInBatchesOfMaxBatch: requests still queued when the
// scheduler sees Close are served in batches of at most MaxBatch. The
// drain used to take the whole queue (up to 4·MaxBatch) as one batch and
// index past the end of its MaxBatch-sized buffers. The scheduler picks
// between a queued request and Close at random, so the test repeats.
func TestCloseDrainsInBatchesOfMaxBatch(t *testing.T) {
	const maxBatch, queued = 4, 16
	for round := 0; round < 20; round++ {
		var calls, total atomic.Int64
		b := &Batcher{eval: areaEval(&calls, &total), maxBatch: maxBatch,
			reqs: make(chan *request, queued), done: make(chan struct{})}
		rs := make([]*request, queued)
		for i := range rs {
			rs[i] = b.getRequest(q1(1))
			b.reqs <- rs[i]
		}
		close(b.done)
		b.stopped.Add(1)
		b.run()
		for i, r := range rs {
			select {
			case <-r.done:
			default:
				t.Fatalf("round %d: queued request %d never served", round, i)
			}
		}
		if total.Load() != queued || calls.Load() != queued/maxBatch {
			t.Fatalf("round %d: %d queries in %d batches, want %d in %d", round, total.Load(), calls.Load(), queued, queued/maxBatch)
		}
	}
}

// TestFillDeadlineNotExtendedByStragglers is the regression test for the
// re-arming fill timer: the scheduler used to Reset the MaxWait deadline on
// every straggler arrival, so a steady trickle spaced just under MaxWait
// kept the batch open for up to (MaxBatch−1)·MaxWait. The deadline must be
// armed once per batch, bounding the first request's wait by MaxWait.
func TestFillDeadlineNotExtendedByStragglers(t *testing.T) {
	const maxWait = 50 * time.Millisecond
	b := New(areaEval(nil, nil), Config{MaxBatch: 8, MaxWait: maxWait})
	defer b.Close()

	// Trickle one straggler every MaxWait·0.9: under the buggy behavior each
	// arrival pushed the deadline out another full MaxWait, so it never
	// expired before the batch filled.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(maxWait * 9 / 10)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				wg.Add(1)
				go func() {
					defer wg.Done()
					b.Estimate(q1(1)) //nolint:errcheck // timing probe only
				}()
			}
		}
	}()

	start := time.Now()
	if _, err := b.Estimate(q1(2)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if elapsed >= 2*maxWait {
		t.Errorf("first request waited %v under a straggler trickle, want < %v (2·MaxWait)", elapsed, 2*maxWait)
	}
}

// TestZeroMaxWaitServesImmediately: MaxWait < 0 means a batch is whatever
// is queued — a lone request must not wait for companions.
func TestZeroMaxWaitServesImmediately(t *testing.T) {
	b := New(areaEval(nil, nil), Config{MaxBatch: 64, MaxWait: -1})
	defer b.Close()
	done := make(chan struct{})
	go func() {
		if got, err := b.Estimate(q1(3)); err != nil || got != 3 {
			t.Errorf("got %v, %v; want 3, nil", got, err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lone request with MaxWait<0 did not complete")
	}
}

// TestMetrics verifies the registry wiring: batch-size and wait histograms
// observe once per batch / request, and the queue-depth gauge is readable.
func TestMetrics(t *testing.T) {
	reg := metrics.New()
	var total atomic.Int64
	b := New(areaEval(nil, &total), Config{MaxBatch: 8, MaxWait: 50 * time.Microsecond, Metrics: reg})

	const callers = 24
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Estimate(q1(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	bs := reg.Histogram("serve.batch_size")
	if bs.Count() == 0 {
		t.Error("serve.batch_size never observed")
	}
	if int64(bs.Sum()) != callers {
		t.Errorf("serve.batch_size sum = %v, want %d (every request in exactly one batch)", bs.Sum(), callers)
	}
	if ws := reg.Histogram("serve.wait_seconds"); ws.Count() != callers {
		t.Errorf("serve.wait_seconds count = %d, want %d", ws.Count(), callers)
	}
	if _, ok := reg.Snapshot().Gauges["serve.queue_depth"]; !ok {
		t.Error("serve.queue_depth gauge not registered")
	}
	// Close must unregister the gauge func: a dead batcher neither reports a
	// stale depth nor stays pinned in memory by the leaked closure.
	b.Close()
	if _, ok := reg.Snapshot().Gauges["serve.queue_depth"]; ok {
		t.Error("serve.queue_depth gauge still registered after Close")
	}
}
