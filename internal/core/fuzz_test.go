package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kdesel/internal/checkpoint"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// checkpointFrame wraps payload in a valid checkpoint frame — magic,
// version, meta, length, payload, CRC-32C — so a fuzzed payload gets past
// the CRC check to the gob decode and the restore validation.
func checkpointFrame(meta uint32, payload []byte) []byte {
	b := make([]byte, 20, 24+len(payload))
	copy(b, "KDCP")
	binary.LittleEndian.PutUint32(b[4:], checkpoint.Version)
	binary.LittleEndian.PutUint32(b[8:], meta)
	binary.LittleEndian.PutUint64(b[12:], uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// FuzzRestoreCheckpoint: every checkpoint payload restores either to an
// error or to an estimator that serves a selectivity in [0, 1] and takes
// feedback — never a panic. The seed corpus in testdata/fuzz holds real
// checkpoints of K=1 and K=4 models with an ingest cursor and ANALYZE
// count.
func FuzzRestoreCheckpoint(f *testing.F) {
	tab, err := table.New(2)
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if err := tab.Insert([]float64{rng.NormFloat64(), 2 * rng.NormFloat64()}); err != nil {
			f.Fatal(err)
		}
	}
	q := query.NewRange([]float64{-1, -1}, []float64{1, 2})
	f.Fuzz(func(t *testing.T, meta uint32, payload []byte) {
		e, err := restoreFrame(checkpointFrame(meta, payload), tab, nil)
		if err != nil {
			return
		}
		defer e.Detach()
		est, err := e.Estimate(q)
		if err != nil || math.IsNaN(est) || est < 0 || est > 1 {
			t.Fatalf("restored estimator: estimate %v, %v", est, err)
		}
		if err := e.Feedback(q, 0.3); err != nil {
			t.Fatalf("restored estimator: feedback: %v", err)
		}
	})
}

// TestRestoreRejectsInvalidFrames: a restore refuses a frame whose shard
// count is below 1, whose ANALYZE count is negative, whose sample is not
// s·d values, or whose RNG position is past what a replay can reach.
func TestRestoreRejectsInvalidFrames(t *testing.T) {
	tab := buildClusteredTable(t, 300, 5)
	e, err := Build(tab, Config{Mode: Adaptive, SampleSize: 64, Seed: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := e.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		edit  func(*chkState)
		valid bool
	}{
		{"unchanged", func(*chkState) {}, true},
		{"zero shards", func(st *chkState) { st.Shards = 0 }, false},
		{"negative shards", func(st *chkState) { st.Shards = -3 }, false},
		{"negative ANALYZE count", func(st *chkState) { st.Analyzes = -1 }, false},
		{"sample not s·d", func(st *chkState) { st.Snap.Sample = st.Snap.Sample[1:] }, false},
		{"RNG position out of reach", func(st *chkState) { st.RNGDraws = maxRestoreDraws + 1 }, false},
	} {
		var st chkState
		meta, err := checkpoint.UnmarshalMeta(b, &st)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(&st)
		frame, err := checkpoint.MarshalMeta(&st, meta)
		if err != nil {
			t.Fatal(err)
		}
		r, err := restoreFrame(frame, tab, nil)
		if (err == nil) != tc.valid {
			t.Fatalf("%s: restore error %v, want valid=%v", tc.name, err, tc.valid)
		}
		if r != nil {
			r.Detach()
		}
	}
}
