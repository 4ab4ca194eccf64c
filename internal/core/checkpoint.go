package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"

	"kdesel/internal/bandwidth"
	"kdesel/internal/checkpoint"
	"kdesel/internal/gpu"
	"kdesel/internal/learner"
	"kdesel/internal/mathx"
	"kdesel/internal/sample"
	"kdesel/internal/table"
)

// chkState is the checkpoint payload: the persistent model snapshot of
// persist.go plus the transient state Save deliberately rebuilds — learner
// accumulators, reservoir stream position, rng stream position, execution
// configuration, and degradation state. Restoring all of it makes the
// resumed estimator bit-identical to the one that took the checkpoint: the
// same estimates, the same future mini-batch updates, and the same future
// random decisions (karma replacement rows, reservoir accepts).
type chkState struct {
	Snap          snapshot
	Learner       *learner.State
	ReservoirSeen int
	RNGDraws      uint64
	Workers       int
	Health        int
	LastEvent     string
	GradTrips     int
	// IngestSeq is the change-feed cursor (see Estimator.IngestCursor).
	// Gob omits zero values, so frames written before ingestion existed
	// restore with cursor 0 — the correct "nothing applied" meaning.
	IngestSeq uint64
	// Shards is K (Config.Shards, at least 1) and Analyzes the ANALYZE
	// count n, which together pick the rows and the random stream of the
	// next ANALYZE.
	Shards   int
	Analyzes int
	// Optimizer is what ANALYZE runs with (Config.BatchOptions). Frames
	// written before it existed decode it as zero: the default options.
	Optimizer optimizerState
}

// optimizerState is the part of bandwidth.OptimalConfig that changes
// which bandwidth an ANALYZE selects. The kernel, loss and random stream
// are rebuilt from the estimator; workers and metrics do not change the
// result.
type optimizerState struct {
	SkipGlobal            bool
	GlobalSamples         int
	SearchFactor          float64
	LinearSpace           bool
	MaxIterations         int
	GlobalLocalIterations int
}

// maxRestoreDraws bounds the recorded RNG stream position a restore
// replays: fast-forwarding is one source step per draw, and 2^32 steps
// already take several seconds.
const maxRestoreDraws = 1 << 32

// Checkpoint atomically writes the estimator's complete state to path in
// the framed, CRC-checked format of internal/checkpoint. The sample is
// read from the host-resident mirror on the device path, so a failing
// device cannot block checkpointing. The estimator remains usable.
func (e *Estimator) Checkpoint(path string) error {
	_, err := e.checkpoint(path, "")
	return err
}

// checkpoint writes the estimator's checkpoint frame to path unless the
// file newest already holds exactly those bytes — then that file is the
// checkpoint, and nothing is written. It reports whether it wrote. An
// empty newest, or one that cannot be read, always writes. The frame
// leaves out the served-estimate counter (snapshot.Queries): it is
// telemetry, and estimate-only traffic would otherwise change every frame.
func (e *Estimator) checkpoint(path, newest string) (bool, error) {
	flat, err := e.sampleHostLocal()
	if err != nil {
		return false, err
	}
	st := chkState{
		Snap:      e.makeSnapshot(flat),
		RNGDraws:  e.src.Draws(),
		Workers:   e.cfg.Workers,
		Health:    int(e.Health()),
		LastEvent: e.lastEvent,
		GradTrips: e.gradTrips,
		IngestSeq: e.ingestSeq,
		Shards:    e.cfg.shards(),
		Analyzes:  e.analyzes,
	}
	// The optimizer reads a count ≤ 0, or a search factor ≤ 1, as its
	// default; the frame stores those as 0, which restore accepts.
	o := e.cfg.BatchOptions
	st.Optimizer = optimizerState{
		SkipGlobal:            o.SkipGlobal,
		GlobalSamples:         max(o.GlobalSamples, 0),
		LinearSpace:           o.LinearSpace,
		MaxIterations:         max(o.MaxIterations, 0),
		GlobalLocalIterations: max(o.GlobalLocalIterations, 0),
	}
	if o.SearchFactor > 1 {
		st.Optimizer.SearchFactor = o.SearchFactor
	}
	if e.learn != nil {
		ls := e.learn.State()
		st.Learner = &ls
	}
	if e.res != nil {
		st.ReservoirSeen = e.res.Seen()
	}
	// The configured serving precision rides in the frame's meta word (low
	// byte), so restore rebuilds — and re-verifies — the same tier.
	buf, err := checkpoint.Frame(&st, uint32(e.precWant), e.faults)
	if err != nil {
		return false, err
	}
	if old, err := os.ReadFile(newest); err == nil && bytes.Equal(old, buf) {
		return false, nil
	}
	if err := checkpoint.WriteAtomic(path, buf); err != nil {
		return false, err
	}
	e.met.checkpoints.Inc()
	return true, nil
}

// RestoreCheckpoint rebuilds an estimator from a checkpoint file written by
// Checkpoint, bound to tab and optionally placed on dev. Corrupted files
// are detected by the CRC frame and reported as checkpoint.ErrCorrupt —
// the file is never partially applied. The restored estimator reproduces
// the original bit for bit: the learner resumes mid-mini-batch and the
// random stream is fast-forwarded to the recorded position. Call
// Instrument afterwards to attach telemetry (registries are not persisted).
func RestoreCheckpoint(path string, tab *table.Table, dev *gpu.Device) (*Estimator, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return restoreFrame(b, tab, dev)
}

// restoreFrame is RestoreCheckpoint over the frame's bytes. Every field is
// validated before use, so no frame — however damaged past its CRC — can
// make the restore panic or yield an unusable estimator.
func restoreFrame(b []byte, tab *table.Table, dev *gpu.Device) (*Estimator, error) {
	var st chkState
	meta, err := checkpoint.UnmarshalMeta(b, &st)
	if err != nil {
		return nil, err
	}
	switch {
	case st.Shards < 1:
		return nil, fmt.Errorf("core: checkpoint shard count %d < 1", st.Shards)
	case st.Analyzes < 0:
		return nil, fmt.Errorf("core: checkpoint ANALYZE count %d < 0", st.Analyzes)
	case st.RNGDraws > maxRestoreDraws:
		return nil, fmt.Errorf("core: checkpoint RNG position %d exceeds %d", st.RNGDraws, uint64(maxRestoreDraws))
	case st.ReservoirSeen < 0 || st.GradTrips < 0:
		return nil, errors.New("core: checkpoint has negative counters")
	case st.Health < int(Healthy) || st.Health > int(Fallback):
		return nil, fmt.Errorf("core: checkpoint health %d out of range", st.Health)
	case st.Optimizer.GlobalSamples < 0 || st.Optimizer.MaxIterations < 0 || st.Optimizer.GlobalLocalIterations < 0:
		return nil, errors.New("core: checkpoint has negative optimizer options")
	case !(st.Optimizer.SearchFactor >= 0) || math.IsInf(st.Optimizer.SearchFactor, 1):
		return nil, fmt.Errorf("core: checkpoint optimizer search factor %v is not finite and ≥ 0", st.Optimizer.SearchFactor)
	}
	e, err := restoreFromSnapshot(st.Snap, tab, dev)
	if err != nil {
		return nil, err
	}
	if st.Learner != nil && e.learn != nil {
		if err := e.learn.Restore(*st.Learner); err != nil {
			return nil, err
		}
	}
	if e.res != nil && st.ReservoirSeen > 0 {
		// Reservoir decisions depend only on (capacity, seen, rng); the
		// rng below is fast-forwarded to the recorded stream position.
		e.res, err = sample.NewReservoir(e.s, st.ReservoirSeen, e.rng)
		if err != nil {
			return nil, err
		}
	}
	e.src.FastForward(st.RNGDraws)
	e.cfg.Workers = st.Workers
	if e.host != nil {
		e.host.SetWorkers(st.Workers)
	}
	e.health.Store(int32(st.Health))
	e.lastEvent = st.LastEvent
	e.gradTrips = st.GradTrips
	e.ingestSeq = st.IngestSeq
	e.cfg.Shards = st.Shards
	o := st.Optimizer
	e.cfg.BatchOptions = bandwidth.OptimalConfig{
		SkipGlobal: o.SkipGlobal, GlobalSamples: o.GlobalSamples, SearchFactor: o.SearchFactor,
		LinearSpace: o.LinearSpace, MaxIterations: o.MaxIterations, GlobalLocalIterations: o.GlobalLocalIterations,
	}
	e.analyzes = st.Analyzes
	// Reapply the checkpointed serving precision (v1 frames carry meta 0 =
	// Float64). The tier is rebuilt from the restored sample and passes
	// the verify gate again before serving; an unknown byte from a future
	// format degrades to Float64 rather than failing the restore.
	if p := mathx.Precision(meta & 0xff); p <= mathx.Quantized {
		e.configurePrecision(p)
	}
	return e, nil
}
