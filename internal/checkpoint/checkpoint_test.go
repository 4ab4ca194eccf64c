package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kdesel/internal/fault"
)

type payload struct {
	Name   string
	Values []float64
	N      int
}

func samplePayload() payload {
	return payload{Name: "model", Values: []float64{1.5, -2.25, 0, 1e-300}, N: 42}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	want := samplePayload()
	if err := WriteFile(path, want, nil); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := ReadFile(path, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
}

func TestAtomicOverwriteKeepsOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := WriteFile(path, samplePayload(), nil); err != nil {
		t.Fatal(err)
	}
	// Overwrite with new content; the old file must be fully replaced.
	next := payload{Name: "v2", Values: []float64{9}, N: 7}
	if err := WriteFile(path, next, nil); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := ReadFile(path, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "v2" {
		t.Fatalf("read %+v after overwrite", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want 1", len(entries))
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := WriteFile(path, samplePayload(), nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte position in turn; ReadFile must never
	// return a silently wrong payload.
	for i := range b {
		mut := make([]byte, len(b))
		copy(mut, b)
		mut[i] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		err := ReadFile(path, &got)
		if err == nil {
			if reflect.DeepEqual(got, samplePayload()) {
				continue // flip in ignored padding would be fine, but flag it
			}
			t.Fatalf("bit flip at byte %d went undetected and changed the payload", i)
		}
	}
}

func TestCorruptReturnsErrCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := WriteFile(path, samplePayload(), nil); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[len(b)-6] ^= 0xFF // inside the payload
	os.WriteFile(path, b, 0o644)
	var got payload
	if err := ReadFile(path, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestVersionError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := WriteFile(path, samplePayload(), nil); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint32(b[4:8], 99)
	os.WriteFile(path, b, 0o644)
	var got payload
	err := ReadFile(path, &got)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != 99 {
		t.Fatalf("err = %v, want *VersionError{Got: 99}", err)
	}
}

func TestTruncatedAndForeignFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	for _, b := range [][]byte{nil, []byte("short"), []byte("not a checkpoint file at all, but long enough to parse")} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if err := ReadFile(path, &got); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadFile(%q) = %v, want ErrCorrupt", b, err)
		}
	}
}

func TestInjectedCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	inj := fault.New(1, fault.Schedule{fault.CheckpointCorrupt: {At: []int{1}}})
	if err := WriteFile(path, samplePayload(), inj); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := ReadFile(path, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("injected corruption not detected: %v", err)
	}
	// The second write does not fire; recovery by rewriting works.
	if err := WriteFile(path, samplePayload(), inj); err != nil {
		t.Fatal(err)
	}
	if err := ReadFile(path, &got); err != nil {
		t.Fatalf("clean rewrite unreadable: %v", err)
	}
	if !reflect.DeepEqual(got, samplePayload()) {
		t.Fatalf("payload mismatch after recovery: %+v", got)
	}
}

func TestMissingFile(t *testing.T) {
	var got payload
	err := ReadFile(filepath.Join(t.TempDir(), "absent.ckpt"), &got)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

// TestMetaRoundTrip: the v2 meta word survives the frame round trip.
func TestMetaRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.ckpt")
	want := samplePayload()
	buf, err := Frame(want, 0x0203, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, buf); err != nil {
		t.Fatal(err)
	}
	var got payload
	meta, err := ReadFileMeta(path, &got)
	if err != nil {
		t.Fatal(err)
	}
	if meta != 0x0203 {
		t.Fatalf("meta = %#x, want 0x0203", meta)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
}

// v1Frame crafts a version-1 frame by hand in the documented v1 layout:
// magic, version, payloadLen, payload, crc.
func v1Frame(tb testing.TB, p payload) []byte {
	tb.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&p); err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, headerLenV1+body.Len()+4)
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], 1)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(body.Len()))
	copy(buf[headerLenV1:], body.Bytes())
	sum := crc32.Checksum(body.Bytes(), castagnoli)
	binary.LittleEndian.PutUint32(buf[headerLenV1+body.Len():], sum)
	return buf
}

// TestV1FrameBackCompat: version-1 frames (written before the meta word
// existed) still decode, reporting meta 0.
func TestV1FrameBackCompat(t *testing.T) {
	want := samplePayload()
	var got payload
	meta, err := UnmarshalMeta(v1Frame(t, want), &got)
	if err != nil {
		t.Fatalf("v1 frame rejected: %v", err)
	}
	if meta != 0 {
		t.Fatalf("v1 meta = %d, want 0", meta)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 payload mismatch: got %+v want %+v", got, want)
	}
}

// FuzzUnmarshalMeta: no byte string panics the frame reader, through the
// magic, the v1 and v2 headers, the length check and the CRC. Every input
// either decodes or fails with ErrCorrupt (which a payload decode error
// wraps) or a *VersionError. The seeds are a valid v1 and a valid v2
// frame and truncations of each.
func FuzzUnmarshalMeta(f *testing.F) {
	v2, err := MarshalMeta(samplePayload(), 0x0203)
	if err != nil {
		f.Fatal(err)
	}
	for _, frame := range [][]byte{v1Frame(f, samplePayload()), v2} {
		for _, n := range []int{len(frame), len(frame) - 1, len(frame) / 2, headerLen, headerLenV1, 4, 0} {
			f.Add(frame[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var out payload
		_, err := UnmarshalMeta(b, &out)
		var ve *VersionError
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.As(err, &ve) {
			t.Fatalf("UnmarshalMeta(%x): untyped error %v", b, err)
		}
	})
}
