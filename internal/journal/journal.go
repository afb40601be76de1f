// Package journal is the durable campaign journal: an append-only,
// CRC-framed record of everything a §4.1 upgrade campaign cannot afford
// to lose across a mediator crash — phase transitions with their
// lifecycle causes, release-set changes, and periodic snapshots of the
// Bayesian aggregation state (the JointCounts posterior inputs plus
// per-release counters). A restarted mediator replays the journal and
// resumes mid-campaign instead of resetting to OldOnly and discarding
// days of accumulated confidence.
//
// On-disk format: an 8-byte magic header, then frames of
//
//	uint32 LE payload length | uint32 LE CRC-32C (Castagnoli) | JSON payload
//
// Replay is torn-tail tolerant by construction: a final frame that is
// truncated, fails its CRC, or is NUL padding (all three are what a
// kill -9 or power cut between write and fsync leaves behind) is
// discarded and replay succeeds with everything before it. Damage that
// cannot be explained by a torn tail — a mid-journal CRC mismatch, a
// bad magic, an over-cap frame length — is a typed *CorruptError
// (errors.Is ErrCorrupt): the journal was corrupted at rest and the
// caller decides whether to quarantine it. Replay never panics and
// never silently mis-folds a damaged record into campaign state.
//
// Its Writer also writes the engine's other durable stream, the
// per-demand JSON lines (NewLineWriter).
//
// This package is deliberately free of wall-clock and randomness
// (enforced by the detrand analyzer): replaying the same bytes always
// yields the same State. Entry timestamps are stamped by callers.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
)

// ErrCorrupt reports journal damage that torn-tail recovery cannot
// explain. Match with errors.Is; the concrete type is *CorruptError.
var ErrCorrupt = errors.New("journal: corrupt")

// CorruptError locates unrecoverable journal damage.
type CorruptError struct {
	// Offset is the byte offset of the frame (or header) the damage was
	// detected in; everything before it replayed cleanly.
	Offset int64
	// Reason describes the damage.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt at byte %d: %s", e.Offset, e.Reason)
}

// Is implements errors.Is matching against ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

func corruptf(off int, format string, args ...any) error {
	return &CorruptError{Offset: int64(off), Reason: fmt.Sprintf(format, args...)}
}

// magic identifies a campaign journal file (and its format version).
var magic = []byte("WSUJRNL1")

// MaxRecord caps one frame's payload. A corrupted length field can
// therefore never balloon a replay allocation past 1 MiB, and a
// snapshot that somehow exceeds the cap is refused at write time rather
// than poisoning the journal.
const MaxRecord = 1 << 20

// Kind tags what an Entry records.
type Kind string

const (
	// KindTransition: a phase transition, with its lifecycle cause.
	KindTransition Kind = "transition"
	// KindSnapshot: a periodic snapshot of campaign state; replay
	// resumes from the last one plus every entry after it.
	KindSnapshot Kind = "snapshot"
	// KindReleaseAdd: a release joined the unit's deployed set.
	KindReleaseAdd Kind = "release-add"
	// KindReleaseRemove: a release left the unit's deployed set.
	KindReleaseRemove Kind = "release-remove"
)

// Release identifies one deployed release for replay.
type Release struct {
	Version string `json:"version"`
	URL     string `json:"url"`
}

// Snapshot is the periodic full-state record: everything needed to
// resume a campaign without replaying its entire history.
type Snapshot struct {
	// Phase is the §4.1 phase at snapshot time.
	Phase lifecycle.Phase `json:"phase"`
	// Mode is the §4.2 operating mode (the owner's integer encoding).
	Mode int `json:"mode"`
	// Quorum is the adjudication quorum.
	Quorum int `json:"quorum"`
	// SwitchedAt is the demand count at the last automatic switch.
	SwitchedAt int `json:"switched_at,omitempty"`
	// Releases is the deployed release set at snapshot time.
	Releases []Release `json:"releases"`
	// Campaign is the monitor's aggregation state (joint record,
	// per-operation records, per-release counters).
	Campaign monitor.CampaignState `json:"campaign"`
}

// Entry is one journal record. Exactly one of the kind-specific fields
// is set, matching Kind. Time is a caller-stamped unix-nano timestamp
// (this package never reads the clock).
type Entry struct {
	Kind       Kind                  `json:"kind"`
	Time       int64                 `json:"t,omitempty"`
	Transition *lifecycle.Transition `json:"transition,omitempty"`
	Snapshot   *Snapshot             `json:"snapshot,omitempty"`
	Release    *Release              `json:"release,omitempty"`
}

// State is the fold of a replayed journal: the campaign position a
// restarted mediator should resume from.
type State struct {
	// Snapshot is the last snapshot replayed (nil when none was written
	// yet — an interrupted campaign younger than one snapshot interval).
	Snapshot *Snapshot
	// Phase is the latest known phase: the last snapshot's, advanced by
	// every transition after it. Zero when the journal had neither.
	Phase lifecycle.Phase
	// LastCause is the cause of the last replayed transition.
	LastCause lifecycle.Cause
	// Releases is the deployed set: the last snapshot's, edited by every
	// release add/remove after it.
	Releases []Release
	// Entries counts replayed records.
	Entries int
	// TransitionsAfterSnapshot counts phase transitions replayed after
	// the last snapshot (all of them when there was no snapshot).
	TransitionsAfterSnapshot int
	// TornTail reports that a truncated/unsynced final record was
	// discarded — expected after a crash, informational only.
	TornTail bool
}

// apply folds one entry into the state.
func (st *State) apply(e Entry) {
	switch e.Kind {
	case KindSnapshot:
		if e.Snapshot == nil {
			return
		}
		snap := *e.Snapshot
		snap.Releases = append([]Release(nil), e.Snapshot.Releases...)
		st.Snapshot = &snap
		st.Phase = snap.Phase
		st.LastCause = 0
		st.Releases = append(st.Releases[:0], snap.Releases...)
		st.TransitionsAfterSnapshot = 0
	case KindTransition:
		if e.Transition == nil {
			return
		}
		st.Phase = e.Transition.To
		st.LastCause = e.Transition.Cause
		st.TransitionsAfterSnapshot++
	case KindReleaseAdd:
		if e.Release == nil || e.Release.Version == "" {
			return
		}
		for i := range st.Releases {
			if st.Releases[i].Version == e.Release.Version {
				st.Releases[i] = *e.Release
				return
			}
		}
		st.Releases = append(st.Releases, *e.Release)
	case KindReleaseRemove:
		if e.Release == nil {
			return
		}
		for i := range st.Releases {
			if st.Releases[i].Version == e.Release.Version {
				st.Releases = append(st.Releases[:i], st.Releases[i+1:]...)
				return
			}
		}
	default:
		// Unknown kinds are skipped, not fatal: a journal written by a
		// newer mediator still replays its known record types.
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the per-frame prefix: length + CRC, both uint32 LE.
const frameHeader = 8

// Decode replays a journal image. It returns the folded state, the byte
// offset just past the last valid frame (the "valid end" — Open
// truncates a torn tail back to it), and an error only for damage that
// torn-tail recovery cannot explain (always a *CorruptError). An empty
// image is a fresh journal: zero State, offset 0, nil error.
func Decode(data []byte) (State, int, error) {
	var st State
	if len(data) == 0 {
		return st, 0, nil
	}
	if len(data) < len(magic) {
		if bytes.HasPrefix(magic, data) {
			// A crash between creating the file and syncing the header.
			st.TornTail = true
			return st, 0, nil
		}
		return st, 0, corruptf(0, "short file is not a journal header")
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return st, 0, corruptf(0, "bad magic %q", data[:len(magic)])
	}
	off := len(magic)
	for off < len(data) {
		if len(data)-off < frameHeader {
			st.TornTail = true
			break
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 && sum == 0 {
			// NUL padding: what a crashed filesystem leaves in the tail
			// block past the last synced write.
			st.TornTail = true
			break
		}
		if length > MaxRecord {
			return st, off, corruptf(off, "frame length %d exceeds cap %d", length, MaxRecord)
		}
		end := off + frameHeader + int(length)
		if end > len(data) {
			st.TornTail = true
			break
		}
		payload := data[off+frameHeader : end]
		if crc32.Checksum(payload, castagnoli) != sum {
			if end == len(data) {
				// The final frame: indistinguishable from a write torn
				// inside a sector, so recoverable by discarding it.
				st.TornTail = true
				break
			}
			return st, off, corruptf(off, "CRC mismatch on a non-final frame")
		}
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			// The CRC matched, so these are the bytes the writer framed —
			// undecodable JSON means the journal is from a broken writer
			// or was doctored; either way torn-tail recovery cannot help.
			return st, off, corruptf(off, "undecodable entry: %v", err)
		}
		st.apply(e)
		st.Entries++
		off = end
	}
	return st, off, nil
}

// encodeFrame frames one entry for appending.
func encodeFrame(e Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding entry: %w", err)
	}
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("journal: entry of %d bytes exceeds record cap %d", len(payload), MaxRecord)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	return frame, nil
}
