// Package checkpoint implements atomic, versioned, integrity-checked
// snapshot files for the estimator pipeline's crash-recovery path.
//
// An estimator embedded in a query optimizer must survive process restarts
// without losing its learned state (bandwidths, learner accumulators, karma
// scores — state the paper's feedback loop of §4 accumulates over thousands
// of queries). This package provides the storage half of that contract:
//
//   - Atomicity: WriteFile writes to a temporary file in the target
//     directory, syncs it, and renames it over the destination, so a crash
//     mid-write never leaves a torn checkpoint — readers see either the old
//     complete file or the new complete file.
//   - Integrity: every frame carries a CRC-32C checksum over the payload;
//     a flipped bit anywhere surfaces as ErrCorrupt on read, never as a
//     silently wrong model.
//   - Versioning: frames carry a format version; unknown versions surface
//     as a *VersionError so future formats fail loudly, not mysteriously.
//
// The payload itself is encoding/gob, chosen to match the repo's existing
// persistence (internal/core/persist.go); this package only adds the frame.
// Corruption can be injected deterministically through internal/fault
// (fault.CheckpointCorrupt) to test the recovery path end-to-end.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"kdesel/internal/fault"
)

// Version is the current frame format version. Version 2 added the meta
// word (serving precision in the low byte); version-1 frames are still
// read, with meta 0 (Float64).
const Version = 2

// magic identifies a kdesel checkpoint frame.
var magic = [4]byte{'K', 'D', 'C', 'P'}

// ErrCorrupt reports a frame whose checksum (or framing) does not verify.
var ErrCorrupt = errors.New("checkpoint: corrupt frame")

// VersionError reports a frame written by an unknown format version.
type VersionError struct {
	// Got is the version found in the frame.
	Got uint32
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported frame version %d (this build reads version %d)", e.Got, Version)
}

// castagnoli is the CRC-32C table (the polynomial with hardware support on
// both x86 and ARM, the standard choice for storage checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame layouts:
//
//	v1: magic(4) version(u32 LE) payloadLen(u64 LE) payload crc32c(u32 LE)
//	v2: magic(4) version(u32 LE) meta(u32 LE) payloadLen(u64 LE) payload crc32c(u32 LE)
//
// The meta word carries small fixed-width frame attributes outside the gob
// payload; the low byte holds the serving precision the model was
// checkpointed with (mathx.Precision), so restore can republish the same
// tier. The CRC covers the payload only — meta corruption is bounded by
// the version check and the consumer's own validation of the byte.
const (
	headerLenV1 = 4 + 4 + 8
	headerLen   = 4 + 4 + 4 + 8
)

// MarshalMeta frames a gob-encoded payload: magic, version, meta, length,
// payload, CRC-32C of the payload.
func MarshalMeta(payload any, meta uint32) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding payload: %w", err)
	}
	buf := make([]byte, headerLen+body.Len()+4)
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], Version)
	binary.LittleEndian.PutUint32(buf[8:12], meta)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(body.Len()))
	copy(buf[headerLen:], body.Bytes())
	sum := crc32.Checksum(buf[headerLen:headerLen+body.Len()], castagnoli)
	binary.LittleEndian.PutUint32(buf[headerLen+body.Len():], sum)
	return buf, nil
}

// UnmarshalMeta verifies a frame, gob-decodes its payload into out, and
// returns the frame's meta word. Version-1 frames (which predate the meta
// word) decode with meta 0.
func UnmarshalMeta(b []byte, out any) (uint32, error) {
	if len(b) < headerLenV1+4 || !bytes.Equal(b[0:4], magic[:]) {
		return 0, ErrCorrupt
	}
	var meta uint32
	var hdr int
	switch v := binary.LittleEndian.Uint32(b[4:8]); v {
	case 1:
		hdr = headerLenV1
	case Version:
		if len(b) < headerLen+4 {
			return 0, ErrCorrupt
		}
		meta = binary.LittleEndian.Uint32(b[8:12])
		hdr = headerLen
	default:
		return 0, &VersionError{Got: v}
	}
	n := binary.LittleEndian.Uint64(b[hdr-8 : hdr])
	if n > uint64(len(b)-hdr-4) {
		return 0, ErrCorrupt
	}
	payload := b[hdr : hdr+int(n)]
	want := binary.LittleEndian.Uint32(b[hdr+int(n) : hdr+int(n)+4])
	if crc32.Checksum(payload, castagnoli) != want {
		return 0, ErrCorrupt
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return 0, fmt.Errorf("checkpoint: decoding payload: %w (%v)", ErrCorrupt, err)
	}
	return meta, nil
}

// WriteFile atomically writes a framed payload to path: the frame is
// written to a temporary file in the same directory, synced, and renamed
// over path. A crash at any point leaves either the previous checkpoint or
// the new one, never a torn file.
//
// inj, when non-nil, may corrupt the written bytes at the
// fault.CheckpointCorrupt point (one deterministic bit flip in the payload,
// after the checksum was computed) — the simulated disk corruption of the
// chaos suite. Pass nil in production.
func WriteFile(path string, payload any, inj *fault.Injector) error {
	buf, err := Frame(payload, 0, inj)
	if err != nil {
		return err
	}
	return WriteAtomic(path, buf)
}

// Frame is MarshalMeta plus the fault.CheckpointCorrupt injection of
// WriteFile: it returns exactly the bytes a checkpoint write installs, so
// a caller can compare them with a file on disk before writing them.
func Frame(payload any, meta uint32, inj *fault.Injector) ([]byte, error) {
	buf, err := MarshalMeta(payload, meta)
	if err != nil {
		return nil, err
	}
	if inj.Fire(fault.CheckpointCorrupt) && len(buf) > headerLen {
		// Flip one payload bit so the CRC check must catch it on read.
		buf[headerLen+(len(buf)-headerLen-4)/2] ^= 0x40
	}
	return buf, nil
}

// WriteAtomic installs buf at path via the temp+sync+rename protocol.
func WriteAtomic(path string, buf []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file; the destination is
	// only ever touched by the final rename.
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: installing %s: %w", path, err)
	}
	return nil
}

// ReadFile reads and verifies a framed payload from path into out. It
// returns ErrCorrupt (possibly wrapped) for damaged frames and a
// *VersionError for unknown versions; callers fall back to an older
// checkpoint or rebuild from scratch on either.
func ReadFile(path string, out any) error {
	_, err := ReadFileMeta(path, out)
	return err
}

// ReadFileMeta is ReadFile returning the frame's meta word (0 for
// version-1 frames).
func ReadFileMeta(path string, out any) (uint32, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return UnmarshalMeta(b, out)
}
