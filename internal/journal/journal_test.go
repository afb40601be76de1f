package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
)

// sampleEntries is a realistic campaign history: releases deploy, the
// campaign advances through Observation with snapshots, and a policy
// switch fires.
func sampleEntries() []Entry {
	return []Entry{
		{Kind: KindReleaseAdd, Time: 1, Release: &Release{Version: "1.0", URL: "http://old/"}},
		{Kind: KindReleaseAdd, Time: 2, Release: &Release{Version: "2.0", URL: "http://new/"}},
		{Kind: KindTransition, Time: 3, Transition: &lifecycle.Transition{
			From: lifecycle.PhaseOldOnly, To: lifecycle.PhaseObservation, Cause: lifecycle.CauseManual}},
		{Kind: KindSnapshot, Time: 4, Snapshot: &Snapshot{
			Phase:  lifecycle.PhaseObservation,
			Mode:   2,
			Quorum: 1,
			Releases: []Release{
				{Version: "1.0", URL: "http://old/"},
				{Version: "2.0", URL: "http://new/"},
			},
			Campaign: monitor.CampaignState{
				Joint: bayes.JointCounts{N: 120, BOnly: 3},
				PerOp: map[string]bayes.JointCounts{"add": {N: 120, BOnly: 3}},
			},
		}},
		{Kind: KindTransition, Time: 5, Transition: &lifecycle.Transition{
			From: lifecycle.PhaseObservation, To: lifecycle.PhaseParallel, Cause: lifecycle.CausePolicy, Demands: 150}},
	}
}

// journalBytes builds an on-disk image via the real writer.
func journalBytes(t *testing.T, entries []Entry) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "unit.journal")
	w, st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.Entries != 0 {
		t.Fatalf("fresh journal replayed %d entries", st.Entries)
	}
	for _, e := range entries {
		w.Append(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeRoundTrip(t *testing.T) {
	data := journalBytes(t, sampleEntries())
	st, validEnd, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if validEnd != len(data) {
		t.Fatalf("validEnd %d, file %d bytes", validEnd, len(data))
	}
	if st.TornTail {
		t.Fatal("clean journal reported a torn tail")
	}
	if st.Entries != 5 {
		t.Fatalf("Entries = %d, want 5", st.Entries)
	}
	if st.Phase != lifecycle.PhaseParallel {
		t.Fatalf("Phase = %v, want parallel", st.Phase)
	}
	if st.LastCause != lifecycle.CausePolicy {
		t.Fatalf("LastCause = %v, want policy", st.LastCause)
	}
	if st.TransitionsAfterSnapshot != 1 {
		t.Fatalf("TransitionsAfterSnapshot = %d, want 1", st.TransitionsAfterSnapshot)
	}
	if st.Snapshot == nil || st.Snapshot.Campaign.Joint.N != 120 {
		t.Fatalf("snapshot not replayed: %+v", st.Snapshot)
	}
	want := []Release{{Version: "1.0", URL: "http://old/"}, {Version: "2.0", URL: "http://new/"}}
	if !reflect.DeepEqual(st.Releases, want) {
		t.Fatalf("Releases = %+v, want %+v", st.Releases, want)
	}
}

func TestReleaseAddRemoveFold(t *testing.T) {
	entries := []Entry{
		{Kind: KindReleaseAdd, Release: &Release{Version: "1.0", URL: "http://a/"}},
		{Kind: KindReleaseAdd, Release: &Release{Version: "2.0", URL: "http://b/"}},
		{Kind: KindReleaseRemove, Release: &Release{Version: "1.0"}},
		{Kind: KindReleaseAdd, Release: &Release{Version: "2.0", URL: "http://b2/"}}, // re-add updates URL
	}
	st, _, err := Decode(journalBytes(t, entries))
	if err != nil {
		t.Fatal(err)
	}
	want := []Release{{Version: "2.0", URL: "http://b2/"}}
	if !reflect.DeepEqual(st.Releases, want) {
		t.Fatalf("Releases = %+v, want %+v", st.Releases, want)
	}
}

// Every truncation of a valid journal must replay cleanly to a prefix —
// the torn-tail property a kill -9 relies on.
func TestDecodeEveryTruncationIsCleanPrefix(t *testing.T) {
	data := journalBytes(t, sampleEntries())
	full, _, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		st, validEnd, err := Decode(data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: Decode error %v", cut, err)
		}
		if st.Entries > full.Entries {
			t.Fatalf("cut at %d: replayed %d entries from a %d-entry journal", cut, st.Entries, full.Entries)
		}
		if validEnd > cut {
			t.Fatalf("cut at %d: validEnd %d past the data", cut, validEnd)
		}
		// Re-decoding the valid prefix must agree and be clean.
		st2, _, err := Decode(data[:validEnd])
		if err != nil {
			t.Fatalf("cut at %d: re-decode of valid prefix: %v", cut, err)
		}
		if st2.Entries != st.Entries || st2.Phase != st.Phase {
			t.Fatalf("cut at %d: prefix re-decode diverged: %+v vs %+v", cut, st2, st)
		}
	}
}

func TestDecodeNULPaddedTailIsTorn(t *testing.T) {
	data := journalBytes(t, sampleEntries())
	padded := append(append([]byte(nil), data...), make([]byte, 512)...)
	st, validEnd, err := Decode(padded)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !st.TornTail || st.Entries != 5 || validEnd != len(data) {
		t.Fatalf("NUL tail: torn=%v entries=%d validEnd=%d (want true, 5, %d)", st.TornTail, st.Entries, validEnd, len(data))
	}
}

func TestDecodeMidJournalCorruptionIsTyped(t *testing.T) {
	data := journalBytes(t, sampleEntries())
	// Flip a byte inside the first frame's payload (well before the
	// final frame), leaving later frames intact.
	corrupted := append([]byte(nil), data...)
	corrupted[len(magic)+frameHeader+2] ^= 0xFF
	_, _, err := Decode(corrupted)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-journal corruption: err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err %v is not a *CorruptError", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, _, err := Decode([]byte("NOTAJRNLxxxxxxx")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}
	// A partial header is a torn first write, not corruption.
	st, _, err := Decode(magic[:3])
	if err != nil || !st.TornTail {
		t.Fatalf("partial magic: st=%+v err=%v", st, err)
	}
}

func TestDecodeOversizedLength(t *testing.T) {
	data := journalBytes(t, sampleEntries()[:1])
	bad := append([]byte(nil), data...)
	// Append a frame header claiming an over-cap payload, with data after.
	bad = append(bad, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 1, 2, 3)
	if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: err = %v, want ErrCorrupt", err)
	}
}

// Open must truncate a torn tail and resume appending cleanly.
func TestOpenTruncatesTornTailAndResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "unit.journal")
	data := journalBytes(t, sampleEntries())
	// Tear the last frame: drop its final 3 bytes.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	w, st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !st.TornTail || st.Entries != 4 {
		t.Fatalf("torn reopen: torn=%v entries=%d, want true, 4", st.TornTail, st.Entries)
	}
	if st.Phase != lifecycle.PhaseObservation {
		t.Fatalf("torn reopen phase %v, want observation (last full record)", st.Phase)
	}
	w.Append(Entry{Kind: KindTransition, Time: 9, Transition: &lifecycle.Transition{
		From: lifecycle.PhaseObservation, To: lifecycle.PhaseNewOnly, Cause: lifecycle.CauseManual}})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, err := Open(path)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	if st2.TornTail || st2.Entries != 5 || st2.Phase != lifecycle.PhaseNewOnly {
		t.Fatalf("after resume: %+v", st2)
	}
}

func TestOpenOrQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "unit.journal")
	data := journalBytes(t, sampleEntries())
	corrupted := append([]byte(nil), data...)
	corrupted[len(magic)+frameHeader+2] ^= 0xFF
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	w, st, err := OpenOrQuarantine(path)
	if w == nil {
		t.Fatalf("OpenOrQuarantine returned no writer (err %v)", err)
	}
	defer w.Close()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("quarantine should report the corruption, got %v", err)
	}
	if st.Entries != 0 {
		t.Fatalf("fresh journal after quarantine replayed %d entries", st.Entries)
	}
	if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
		t.Fatalf("corrupt journal not preserved: %v", statErr)
	}
}

func TestCompactBoundsGrowth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "unit.journal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEntries() {
		w.Append(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := Entry{Kind: KindSnapshot, Time: 10, Snapshot: &Snapshot{
		Phase:    lifecycle.PhaseParallel,
		Releases: []Release{{Version: "2.0", URL: "http://new/"}},
		Campaign: monitor.CampaignState{Joint: bayes.JointCounts{N: 150, BOnly: 3}},
	}}
	if err := w.Compact(snap); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Phase != lifecycle.PhaseParallel || st.Snapshot == nil ||
		st.Snapshot.Campaign.Joint.N != 150 {
		t.Fatalf("after compact: %+v", st)
	}
}

// A full queue must drop (with accounting), never block the caller.
func TestAppendOnFullQueueDropsNotBlocks(t *testing.T) {
	// A writer whose goroutine never runs: the queue only fills.
	w := &Writer{ch: make(chan wreq, 4), quit: make(chan struct{}), done: make(chan struct{})}
	e := Entry{Kind: KindTransition, Transition: &lifecycle.Transition{
		From: lifecycle.PhaseOldOnly, To: lifecycle.PhaseObservation, Cause: lifecycle.CauseManual}}
	for i := 0; i < 10; i++ {
		w.Append(e) // must return immediately even with a dead consumer
	}
	if got := w.drops.Load(); got != 6 {
		t.Fatalf("drops = %d, want 6", got)
	}
}

// An Append after Close is one the writer will never write: it is
// counted as a drop, not parked on a queue nothing drains, and the file
// holds only what came before Close.
func TestAppendAfterCloseCountsDrop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit.journal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	entries := sampleEntries()
	w.Append(entries[0])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Append(entries[1])
	if got := w.drops.Load(); got != 1 {
		t.Fatalf("drops = %d after an Append on a closed writer, want 1", got)
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "1 appends dropped") {
		t.Fatalf("Close after a dropped append = %v, want the drop reported", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, _, err := Decode(data); err != nil || st.Entries != 1 {
		t.Fatalf("closed journal holds %+v (err %v), want the one entry appended before Close", st, err)
	}
}

func TestUnknownKindIsSkipped(t *testing.T) {
	entries := append(sampleEntries(), Entry{Kind: Kind("hologram"), Time: 99})
	st, _, err := Decode(journalBytes(t, entries))
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 6 || st.Phase != lifecycle.PhaseParallel {
		t.Fatalf("unknown kind changed the fold: %+v", st)
	}
}
