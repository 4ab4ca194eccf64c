package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kdesel/internal/checkpoint"
	"kdesel/internal/fault"
	"kdesel/internal/gpu"
	"kdesel/internal/learner"
	"kdesel/internal/mathx"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// driveFeedback runs n estimate+feedback rounds against the true table
// selectivities, exercising the full adaptive loop (learning + karma).
func driveFeedback(t *testing.T, e *Estimator, tab *table.Table, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		q := dataQuery(tab, rng, 1.5)
		if _, err := e.Estimate(q); err != nil {
			t.Fatal(err)
		}
		actual, err := tab.Selectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Feedback(q, actual); err != nil {
			t.Fatal(err)
		}
	}
}

// probeQueries returns a deterministic probe workload.
func probeQueries(tab *table.Table, seed int64, n int) []query.Range {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query.Range, n)
	for i := range qs {
		qs[i] = dataQuery(tab, rng, 2)
	}
	return qs
}

// assertSameEstimates fails unless a and b produce bit-identical estimates
// on every probe query.
func assertSameEstimates(t *testing.T, label string, a, b *Estimator, qs []query.Range) {
	t.Helper()
	for i, q := range qs {
		ea, err := a.Estimate(q)
		if err != nil {
			t.Fatalf("%s: original estimate: %v", label, err)
		}
		eb, err := b.Estimate(q)
		if err != nil {
			t.Fatalf("%s: restored estimate: %v", label, err)
		}
		if ea != eb {
			t.Fatalf("%s: probe %d: estimates diverged: %v vs %v", label, i, ea, eb)
		}
	}
}

func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"adaptive", Config{Mode: Adaptive, SampleSize: 64, Seed: 11}},
		{"log-adaptive", Config{Mode: Adaptive, SampleSize: 64, Seed: 11, Learner: learner.Config{Logarithmic: true}}},
		{"batch", Config{Mode: Batch, SampleSize: 64, Seed: 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := buildClusteredTable(t, 300, 21)
			cfg := tc.cfg
			if cfg.Mode == Batch {
				cfg.Training = feedbackSet(t, tab, rand.New(rand.NewSource(2)), 30, 2)
			}
			e, err := Build(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			driveFeedback(t, e, tab, 31, 57) // leaves a partial mini-batch open
			path := filepath.Join(t.TempDir(), "model.ckpt")
			if err := e.Checkpoint(path); err != nil {
				t.Fatal(err)
			}
			r, err := RestoreCheckpoint(path, tab, nil)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(e.Bandwidth(), r.Bandwidth()) {
				t.Fatalf("bandwidth mismatch: %v vs %v", e.Bandwidth(), r.Bandwidth())
			}
			if e.learn != nil {
				if !reflect.DeepEqual(e.learn.State(), r.learn.State()) {
					t.Fatalf("learner state mismatch:\n%+v\n%+v", e.learn.State(), r.learn.State())
				}
			}
			if e.src.Draws() != r.src.Draws() {
				t.Fatalf("rng position mismatch: %d vs %d", e.src.Draws(), r.src.Draws())
			}
			assertSameEstimates(t, "post-restore", e, r, probeQueries(tab, 41, 25))

			// Continued behavior must also be bit-identical: further
			// feedback, mini-batch updates, karma replacements, and
			// reservoir decisions over shared inserts all replay the same
			// random stream on both sides.
			ins := rand.New(rand.NewSource(51))
			for i := 0; i < 40; i++ {
				if err := tab.Insert([]float64{ins.NormFloat64()*0.4 + 6, ins.NormFloat64()*0.4 + 6}); err != nil {
					t.Fatal(err)
				}
			}
			driveFeedback(t, e, tab, 61, 33)
			driveFeedback(t, r, tab, 61, 33)
			if !reflect.DeepEqual(e.Bandwidth(), r.Bandwidth()) {
				t.Fatalf("bandwidths diverged after continuation: %v vs %v", e.Bandwidth(), r.Bandwidth())
			}
			if e.learn != nil && !reflect.DeepEqual(e.learn.State(), r.learn.State()) {
				t.Fatal("learner states diverged after continuation")
			}
			assertSameEstimates(t, "post-continuation", e, r, probeQueries(tab, 71, 25))
		})
	}
}

func TestCheckpointRoundTripDevice(t *testing.T) {
	tab := buildClusteredTable(t, 300, 23)
	dev, err := gpu.NewDevice(gpu.GTX460())
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(tab, Config{Mode: Adaptive, SampleSize: 64, Seed: 13, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	driveFeedback(t, e, tab, 33, 45)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := e.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	dev2, err := gpu.NewDevice(gpu.GTX460())
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreCheckpoint(path, tab, dev2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Device() == nil {
		t.Fatal("restored estimator not placed on device")
	}
	assertSameEstimates(t, "device", e, r, probeQueries(tab, 43, 25))
	driveFeedback(t, e, tab, 63, 20)
	driveFeedback(t, r, tab, 63, 20)
	assertSameEstimates(t, "device continuation", e, r, probeQueries(tab, 73, 25))

	// Cross-placement restore: the same checkpoint restores onto the host
	// and serves the same model.
	h, err := RestoreCheckpoint(path, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Device() != nil {
		t.Fatal("host restore ended up on a device")
	}
}

func TestCheckpointCorruptionDetectedAndRecoverable(t *testing.T) {
	tab := buildClusteredTable(t, 200, 27)
	inj := fault.New(5, fault.Schedule{fault.CheckpointCorrupt: {At: []int{1}}})
	e, err := Build(tab, Config{Mode: Adaptive, SampleSize: 64, Seed: 17, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	driveFeedback(t, e, tab, 37, 20)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := e.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCheckpoint(path, tab, nil); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("restore of corrupted checkpoint: err = %v, want ErrCorrupt", err)
	}
	// The estimator is unaffected; rewriting produces a clean checkpoint.
	if err := e.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreCheckpoint(path, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, "after recovery", e, r, probeQueries(tab, 47, 20))
}

// TestRetireWritesOnlyChangedState: a server's conditional checkpoint
// writes nothing while the newest file holds its frame byte for byte —
// estimates do not change the frame, and a restored model re-marshals to
// exactly the file it came from — and writes after any change: a
// feedback, an ANALYZE, a precision switch. Retire retires the server
// whether or not it wrote.
func TestRetireWritesOnlyChangedState(t *testing.T) {
	tab := buildClusteredTable(t, 300, 29)
	e, err := Build(tab, Config{Mode: Adaptive, SampleSize: 64, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(e, ServeConfig{MaxBatch: 1})
	dir, newest, n := t.TempDir(), "", 0
	// cut runs one conditional checkpoint against the newest file and
	// fails unless it wrote exactly when want.
	cut := func(label string, write func(path, newest string) (bool, error), want bool) {
		t.Helper()
		n++
		path := filepath.Join(dir, fmt.Sprintf("%02d.ckpt", n))
		wrote, err := write(path, newest)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		_, statErr := os.Stat(path)
		if wrote != want || (statErr == nil) != want {
			t.Fatalf("%s: wrote %v (file exists %v), want %v", label, wrote, statErr == nil, want)
		}
		if wrote {
			newest = path
		}
	}
	rng := rand.New(rand.NewSource(39))
	estimate := func(srv *Server) {
		t.Helper()
		for _, q := range probeQueries(tab, rng.Int63(), 8) {
			if _, err := srv.Estimate(q); err != nil {
				t.Fatal(err)
			}
		}
	}

	cut("never checkpointed", s.CheckpointChanged, true)
	estimate(s)
	cut("estimates only", s.CheckpointChanged, false)
	fb := feedbackSet(t, tab, rng, 1, 1.5)[0]
	if err := s.Feedback(fb.Query, fb.Actual); err != nil {
		t.Fatal(err)
	}
	cut("one feedback", s.CheckpointChanged, true)
	if err := s.Reoptimize(feedbackSet(t, tab, rng, 6, 1.5)); err != nil {
		t.Fatal(err)
	}
	cut("one ANALYZE", s.CheckpointChanged, true)
	estimate(s)
	cut("clean retire", s.Retire, false)
	if err := s.Reoptimize(feedbackSet(t, tab, rng, 6, 1.5)); !errors.Is(err, ErrRetired) {
		t.Fatalf("ANALYZE after a retire that wrote nothing: err = %v, want ErrRetired", err)
	}

	r, err := RestoreCheckpoint(newest, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Queries() != 0 {
		t.Fatalf("restored model counts %d served estimates; checkpoint frames carry none", r.Queries())
	}
	rs := NewServer(r, ServeConfig{MaxBatch: 1})
	estimate(rs)
	cut("restored, estimates only", rs.CheckpointChanged, false)
	rs.SetPrecision(mathx.Float32)
	cut("precision switch", rs.Retire, true)
}
