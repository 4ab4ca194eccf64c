// Package ingest bridges a table's change feed to a serving model with
// bounded lag. It is the fix-by-construction for the unsynchronized
// listener path: instead of mutating the model's sample on the mutator's
// goroutine, a Bridge subscribes to the feed, buffers mutations in a
// lock-free single-producer/single-consumer ring, and applies them in
// batches on a dedicated goroutine through the model's synchronized
// ApplyMutations entry point — one writer-lock acquisition and one
// snapshot republish per batch instead of one per mutation.
//
// Backpressure is part of the contract: when the ring is full the producer
// (the table mutator, inside its listener callback) parks until the
// applier frees slots, so maintenance lag is bounded by the ring size.
// Because a parked producer holds the table's notification lock, the
// apply path (core.Estimator.ApplyMutations) deliberately never takes
// table locks — see its applyDelete.
//
// The bridge also assigns each event its 1-based feed sequence number,
// which the model records as its ingest cursor and checkpoints. On
// restore, pass the restored cursor via Config.Cursor and replay the feed
// from the start: events at or below the cursor are skipped without
// touching the model (no sample writes, no RNG draws), so the restored
// model converges bit-identically to one that never stopped.
//
// Finally, the bridge watches the insert stream for distribution drift:
// per-dimension running moments over a sliding window are compared against
// the table's baseline moments, and a normalized mean shift beyond the
// threshold fires Config.OnDrift — which the registry wires to
// ScheduleAnalyze, closing the self-tuning loop of §6.5 for evolving data.
package ingest

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"kdesel/internal/metrics"
	"kdesel/internal/table"
)

// Applier is the synchronized model entry point the bridge feeds.
// core.Server and the registry adapter implement it. A call
// applies the batch under the model's writer lock and republishes the
// serving snapshot at most once. Appliers must not call back into the
// table: they run while table mutators may be parked on ring backpressure.
type Applier interface {
	ApplyMutations(ms []table.Mutation) error
}

// DriftConfig tunes the insert-stream drift detector.
type DriftConfig struct {
	// Window is the number of observed rows per evaluation window.
	// Default 256. Negative disables detection.
	Window int
	// Threshold is the normalized mean shift — |window mean − baseline
	// mean| in units of the baseline standard deviation — beyond which a
	// drift trigger fires. Default 1.0.
	Threshold float64
}

// Drift describes one detector trigger: the worst-shifted dimension at the
// moment the window tripped the threshold.
type Drift struct {
	// Dim is the dimension with the largest normalized shift.
	Dim int
	// Shift is that dimension's |Δmean|/σ_baseline.
	Shift float64
	// Window is how many rows the tripping window observed.
	Window int
}

// Config parameterizes Attach.
type Config struct {
	// RingSize bounds how many mutations may be buffered before table
	// mutators block (the lag bound). Rounded up to a power of two.
	// Default 1024.
	RingSize int
	// MaxBatch caps how many mutations one ApplyMutations call carries
	// (and so how long the model's writer lock is held per batch).
	// Default 256, clamped to RingSize.
	MaxBatch int
	// Cursor is the model's ingest cursor at attach time. Without Replay,
	// sequence numbering continues from it — the live-continuation mode
	// used when a bridge is (re)attached to an ongoing feed, e.g. after
	// evict/restore inside one process.
	Cursor uint64
	// Replay marks the feed as a from-the-beginning replay of a stream the
	// model already partially consumed (crash recovery: restore the
	// checkpoint, replay the log). Sequence numbering restarts at 1 and
	// events at or below Cursor are skipped without touching the model —
	// no sample writes, no RNG draws — so the replayed model is
	// bit-identical to one that never stopped.
	Replay bool
	// Drift tunes the drift detector.
	Drift DriftConfig
	// OnDrift, if set, is called from the applier goroutine on each drift
	// trigger. It must be fast and must not block on the bridge or the
	// table's mutation path.
	OnDrift func(Drift)
	// Metrics, if set, receives ingest.* counters and gauges.
	Metrics *metrics.Registry
}

// Stats is a point-in-time snapshot of a bridge's counters.
type Stats struct {
	Seen          int64 // feed events observed (including skipped)
	Skipped       int64 // events at or below the replay cursor
	Enqueued      int64 // events buffered in the ring
	Applied       int64 // events applied to the model
	Batches       int64 // ApplyMutations calls (snapshot republishes)
	Blocked       int64 // producer parks on a full ring
	ApplyErrors   int64 // batches whose apply returned an error
	DriftTriggers int64 // drift detector firings
	Depth         int   // mutations currently buffered
	Cursor        uint64
}

type bridgeMetrics struct {
	seen, skipped, enqueued *metrics.Counter
	applied, batches, saved *metrics.Counter
	blocked, applyErrors    *metrics.Counter
	driftTriggers           *metrics.Counter
}

func (m *bridgeMetrics) instrument(reg *metrics.Registry) {
	m.seen = reg.Counter("ingest.seen")
	m.skipped = reg.Counter("ingest.skipped")
	m.enqueued = reg.Counter("ingest.enqueued")
	m.applied = reg.Counter("ingest.applied")
	m.batches = reg.Counter("ingest.batches")
	m.saved = reg.Counter("ingest.republish_saved")
	m.blocked = reg.Counter("ingest.blocked")
	m.applyErrors = reg.Counter("ingest.apply_errors")
	m.driftTriggers = reg.Counter("ingest.drift_triggers")
}

// driftState holds the detector: a fixed baseline (the table's moments at
// attach time, or the first full window when the table was empty) and
// Welford accumulators over the current window. It is only touched from
// drainOnce under applyMu.
type driftState struct {
	window    int
	threshold float64
	haveBase  bool
	baseMean  []float64
	baseStd   []float64
	n         int
	mean      []float64
	m2        []float64
}

func (d *driftState) observe(row []float64) (Drift, bool) {
	if d.window <= 0 {
		return Drift{}, false
	}
	if d.mean == nil {
		d.mean = make([]float64, len(row))
		d.m2 = make([]float64, len(row))
	}
	d.n++
	for j, v := range row {
		delta := v - d.mean[j]
		d.mean[j] += delta / float64(d.n)
		d.m2[j] += delta * (v - d.mean[j])
	}
	if d.n < d.window {
		return Drift{}, false
	}
	tripped := Drift{Dim: -1}
	if d.haveBase {
		for j := range d.mean {
			sd := d.baseStd[j]
			if sd < 1e-12 {
				sd = 1e-12
			}
			shift := math.Abs(d.mean[j]-d.baseMean[j]) / sd
			if shift > tripped.Shift {
				tripped = Drift{Dim: j, Shift: shift, Window: d.n}
			}
		}
	}
	fired := d.haveBase && tripped.Shift >= d.threshold
	// Re-baseline to the window just observed — whether it fired (the
	// model is being re-tuned to the new distribution) or not (slow drift
	// still advances the baseline, so only *fresh* drift re-triggers).
	if fired || !d.haveBase {
		d.baseMean = append(d.baseMean[:0], d.mean...)
		if d.baseStd == nil {
			d.baseStd = make([]float64, len(d.mean))
		}
		for j := range d.m2 {
			d.baseStd[j] = math.Sqrt(d.m2[j] / float64(d.n))
		}
		d.haveBase = true
	}
	d.n = 0
	for j := range d.mean {
		d.mean[j], d.m2[j] = 0, 0
	}
	if !fired {
		return Drift{}, false
	}
	return tripped, true
}

// Bridge is the bounded-lag ingestion pipe between one table and one
// model. Create it with Attach; stop it with Close.
type Bridge struct {
	tab *table.Table
	app Applier
	cfg Config

	buf  []table.Mutation
	mask uint64

	seq  atomic.Uint64 // last feed position assigned (producer side)
	head atomic.Uint64 // consumer position: next slot to read
	tail atomic.Uint64 // producer position: next slot to write

	cursor atomic.Uint64 // highest Seq handed to the applier

	wake  chan struct{} // capacity 1: data available
	space chan struct{} // capacity 1: slots freed
	done  chan struct{}
	wg    sync.WaitGroup

	applyMu sync.Mutex // serializes drainOnce between the loop and Flush
	batch   []table.Mutation
	drift   driftState

	errMu   sync.Mutex
	lastErr error

	closeOnce sync.Once
	met       bridgeMetrics
	reg       *metrics.Registry
}

// Attach subscribes a new bridge to tab's change feed and starts its
// applier goroutine. Mutations recorded from the point Attach returns are
// applied to app in feed order; attach the bridge before the mutations it
// must capture. The caller owns the returned bridge and must Close it.
func Attach(tab *table.Table, app Applier, cfg Config) (*Bridge, error) {
	if tab == nil {
		return nil, errors.New("ingest: nil table")
	}
	if app == nil {
		return nil, errors.New("ingest: nil applier")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	size := 1
	for size < cfg.RingSize {
		size <<= 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.MaxBatch > size {
		cfg.MaxBatch = size
	}
	if cfg.Drift.Window == 0 {
		cfg.Drift.Window = 256
	}
	if cfg.Drift.Threshold <= 0 {
		cfg.Drift.Threshold = 1.0
	}
	b := &Bridge{
		tab:   tab,
		app:   app,
		cfg:   cfg,
		buf:   make([]table.Mutation, size),
		mask:  uint64(size - 1),
		wake:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
		done:  make(chan struct{}),
		batch: make([]table.Mutation, 0, cfg.MaxBatch),
		drift: driftState{window: cfg.Drift.Window, threshold: cfg.Drift.Threshold},
	}
	b.cursor.Store(cfg.Cursor)
	if !cfg.Replay {
		b.seq.Store(cfg.Cursor) // continue the live numbering
	}
	if mean, std, ok := tab.Moments(); ok {
		b.drift.haveBase = true
		b.drift.baseMean = mean
		b.drift.baseStd = std
	}
	b.reg = cfg.Metrics
	if b.reg == nil {
		b.reg = metrics.New() // private: keeps Stats() readable
	}
	b.met.instrument(b.reg)
	b.reg.RegisterGaugeFunc("ingest.ring_depth", func() float64 { return float64(b.Depth()) })
	b.reg.RegisterGaugeFunc("ingest.lag", func() float64 { return float64(b.Lag()) })
	b.wg.Add(1)
	go b.loop()
	tab.Subscribe(b)
	return b, nil
}

// OnInsert implements table.Listener.
func (b *Bridge) OnInsert(row []float64) {
	b.record(table.Mutation{Kind: table.MutInsert, Row: row})
}

// OnDelete implements table.Listener.
func (b *Bridge) OnDelete(row []float64) {
	b.record(table.Mutation{Kind: table.MutDelete, Row: row})
}

// OnUpdate implements table.Listener.
func (b *Bridge) OnUpdate(oldRow, newRow []float64) {
	b.record(table.Mutation{Kind: table.MutUpdate, Pre: oldRow, Row: newRow})
}

// record assigns the event its feed position and enqueues it, parking on a
// full ring. It runs inside the table's notification lock, so there is at
// most one producer at a time and events carry consecutive sequence
// numbers in mutation order. The rows are the table's private copies —
// safe to retain without another allocation.
func (b *Bridge) record(m table.Mutation) {
	s := b.seq.Add(1)
	b.met.seen.Inc()
	if s <= b.cfg.Cursor {
		b.met.skipped.Inc() // replay below the restored cursor
		return
	}
	m.Seq = s
	size := uint64(len(b.buf))
	for {
		if b.tail.Load()-b.head.Load() < size {
			t := b.tail.Load()
			b.buf[t&b.mask] = m
			b.tail.Store(t + 1)
			b.met.enqueued.Inc()
			select {
			case b.wake <- struct{}{}:
			default:
			}
			return
		}
		// Ring full: bounded lag means the mutator waits, not the model
		// falls behind. The applier frees slots without table locks, so
		// parking here (holding the table's notification lock) is safe.
		b.met.blocked.Inc()
		<-b.space
	}
}

func (b *Bridge) loop() {
	defer b.wg.Done()
	for {
		if b.drainOnce() == 0 {
			select {
			case <-b.wake:
			case <-b.done:
				return
			}
		}
	}
}

// drainOnce applies up to MaxBatch pending mutations in one synchronized
// call and returns how many it applied. Shared by the applier loop and
// Flush, serialized by applyMu.
func (b *Bridge) drainOnce() int {
	b.applyMu.Lock()
	defer b.applyMu.Unlock()
	h := b.head.Load()
	n := int(b.tail.Load() - h)
	if n == 0 {
		return 0
	}
	if n > b.cfg.MaxBatch {
		n = b.cfg.MaxBatch
	}
	batch := b.batch[:0]
	for i := uint64(0); i < uint64(n); i++ {
		batch = append(batch, b.buf[(h+i)&b.mask])
	}
	err := b.app.ApplyMutations(batch)
	for i := uint64(0); i < uint64(n); i++ {
		b.buf[(h+i)&b.mask] = table.Mutation{} // release row references
	}
	// Slots are freed even on error: the applier consumed what it could,
	// and replaying a failed batch would double-apply its successes.
	b.head.Store(h + uint64(n))
	select {
	case b.space <- struct{}{}:
	default:
	}
	b.cursor.Store(batch[n-1].Seq)
	b.met.applied.Add(int64(n))
	b.met.batches.Inc()
	b.met.saved.Add(int64(n - 1))
	if err != nil {
		b.met.applyErrors.Inc()
		b.errMu.Lock()
		b.lastErr = err
		b.errMu.Unlock()
	}
	for i := range batch {
		if batch[i].Kind == table.MutDelete {
			continue
		}
		if d, ok := b.drift.observe(batch[i].Row); ok {
			b.met.driftTriggers.Inc()
			if b.cfg.OnDrift != nil {
				b.cfg.OnDrift(d)
			}
		}
	}
	return n
}

// Flush synchronously applies everything currently buffered and returns
// the latest apply error, if any. With concurrent mutators it drains
// whatever is pending at each pass; after Unsubscribe (or inside Close) it
// empties the ring completely.
func (b *Bridge) Flush() error {
	for b.drainOnce() > 0 {
	}
	return b.Err()
}

// Close detaches the bridge from the table, applies every mutation it
// recorded, stops the applier goroutine and unregisters its gauges. After
// Close returns the model's ingest cursor equals the last recorded
// sequence number. Close is idempotent; only the first call reports a
// flush error.
func (b *Bridge) Close() error {
	var err error
	b.closeOnce.Do(func() {
		// Unsubscribe first: once it returns, no producer is inside
		// record (a parked producer is unparked by the applier, which
		// needs no table locks). Then the ring can only shrink.
		b.tab.Unsubscribe(b)
		err = b.Flush()
		close(b.done)
		b.wg.Wait()
		b.reg.UnregisterGaugeFunc("ingest.ring_depth")
		b.reg.UnregisterGaugeFunc("ingest.lag")
	})
	return err
}

// Depth is the number of mutations currently buffered.
func (b *Bridge) Depth() int { return int(b.tail.Load() - b.head.Load()) }

// Lag is the maintenance lag: recorded-but-unapplied mutations. It equals
// Depth and is bounded by the ring size.
func (b *Bridge) Lag() uint64 { return b.tail.Load() - b.head.Load() }

// Cursor is the highest feed sequence number handed to the applier (or
// the restored cursor before the first batch).
func (b *Bridge) Cursor() uint64 { return b.cursor.Load() }

// Seen is the number of feed events observed, including replay skips.
func (b *Bridge) Seen() uint64 { return b.seq.Load() }

// Err returns the most recent apply error, or nil.
func (b *Bridge) Err() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.lastErr
}

// Stats snapshots the bridge's counters.
func (b *Bridge) Stats() Stats {
	return Stats{
		Seen:          b.met.seen.Value(),
		Skipped:       b.met.skipped.Value(),
		Enqueued:      b.met.enqueued.Value(),
		Applied:       b.met.applied.Value(),
		Batches:       b.met.batches.Value(),
		Blocked:       b.met.blocked.Value(),
		ApplyErrors:   b.met.applyErrors.Value(),
		DriftTriggers: b.met.driftTriggers.Value(),
		Depth:         b.Depth(),
		Cursor:        b.Cursor(),
	}
}
