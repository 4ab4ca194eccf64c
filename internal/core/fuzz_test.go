package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kdesel/internal/bandwidth"
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
	tab := corpusTable(f)
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

// corpusTable is the table FuzzRestoreCheckpoint's seed checkpoints were
// taken over.
func corpusTable(tb testing.TB) *table.Table {
	tb.Helper()
	tab, err := table.New(2)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if err := tab.Insert([]float64{rng.NormFloat64(), 2 * rng.NormFloat64()}); err != nil {
			tb.Fatal(err)
		}
	}
	return tab
}

// TestRestoreFramesWithoutOptimizer: the seed checkpoints were written
// before frames carried the optimizer options. They still restore, and
// with the default options.
func TestRestoreFramesWithoutOptimizer(t *testing.T) {
	tab := corpusTable(t)
	files, err := filepath.Glob("testdata/fuzz/FuzzRestoreCheckpoint/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed checkpoints: %v", err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A seed file is "go test fuzz v1", then one Go literal per line.
		lines := strings.Split(string(b), "\n")
		var meta uint32
		if _, err := fmt.Sscanf(lines[1], "uint32(%d)", &meta); err != nil {
			t.Fatalf("%s: meta: %v", path, err)
		}
		payload, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: payload: %v", path, err)
		}
		e, err := restoreFrame(checkpointFrame(meta, []byte(payload)), tab, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if e.cfg.BatchOptions != (bandwidth.OptimalConfig{}) {
			t.Errorf("%s: restored optimizer options %+v, want the defaults", path, e.cfg.BatchOptions)
		}
		e.Detach()
	}
}

// TestRestoreRejectsInvalidFrames: a restore refuses a frame whose shard
// count is below 1, whose ANALYZE count is negative, whose sample is not
// s·d values, whose RNG position is past what a replay can reach, or
// whose optimizer options hold a negative count or a search factor that
// is negative or not finite.
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
		{"optimizer options", func(st *chkState) {
			st.Optimizer = optimizerState{SkipGlobal: true, GlobalSamples: 8, SearchFactor: 50, LinearSpace: true,
				MaxIterations: 5, GlobalLocalIterations: 3}
		}, true},
		{"negative global samples", func(st *chkState) { st.Optimizer.GlobalSamples = -1 }, false},
		{"negative max iterations", func(st *chkState) { st.Optimizer.MaxIterations = -1 }, false},
		{"negative MLSL iterations", func(st *chkState) { st.Optimizer.GlobalLocalIterations = -1 }, false},
		{"negative search factor", func(st *chkState) { st.Optimizer.SearchFactor = -2 }, false},
		{"NaN search factor", func(st *chkState) { st.Optimizer.SearchFactor = math.NaN() }, false},
		{"infinite search factor", func(st *chkState) { st.Optimizer.SearchFactor = math.Inf(1) }, false},
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
