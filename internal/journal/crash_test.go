package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
)

// memFS is an in-memory fileSystem that logs every operation with the
// image it leaves. A write appends (the journal only ever appends), so
// a log prefix, plus the start of the next write, is exactly what a
// process crash at that point leaves on disk: every completed write
// survives. Losing unsynced bytes to a power cut is not modelled.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memInode
	ops   []memOp
}

type memInode struct{ data []byte }

// memOp is one logged operation. name is the file's name when the
// operation ran; image is every file's content after it.
type memOp struct {
	kind  string
	name  string
	to    string // rename's new name
	data  []byte // write's bytes
	image map[string][]byte
}

func newMemFS(image map[string][]byte) *memFS {
	m := &memFS{files: map[string]*memInode{}}
	for name, data := range image {
		m.files[name] = &memInode{data: slices.Clone(data)}
	}
	return m
}

// imageLocked copies every file's content.
func (m *memFS) imageLocked() map[string][]byte {
	img := make(map[string][]byte, len(m.files))
	for name, ino := range m.files {
		img[name] = slices.Clone(ino.data)
	}
	return img
}

func (m *memFS) logLocked(op memOp) {
	op.image = m.imageLocked()
	m.ops = append(m.ops, op)
}

func (m *memFS) readFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logLocked(memOp{kind: "read", name: name})
	ino := m.files[name]
	if ino == nil {
		return nil, fs.ErrNotExist
	}
	return slices.Clone(ino.data), nil
}

func (m *memFS) create(name string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := &memInode{}
	m.files[name] = ino
	m.logLocked(memOp{kind: "create", name: name})
	return &memFile{fs: m, ino: ino}, nil
}

func (m *memFS) openAppend(name string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logLocked(memOp{kind: "open", name: name})
	ino := m.files[name]
	if ino == nil {
		return nil, fs.ErrNotExist
	}
	return &memFile{fs: m, ino: ino}, nil
}

func (m *memFS) truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[name]
	if ino == nil {
		return fs.ErrNotExist
	}
	ino.data = ino.data[:size]
	m.logLocked(memOp{kind: fmt.Sprintf("truncate to %d", size), name: name})
	return nil
}

func (m *memFS) rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[oldname]
	if ino == nil {
		return fs.ErrNotExist
	}
	delete(m.files, oldname)
	m.files[newname] = ino
	m.logLocked(memOp{kind: "rename", name: oldname, to: newname})
	return nil
}

func (m *memFS) remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return fs.ErrNotExist
	}
	delete(m.files, name)
	m.logLocked(memOp{kind: "remove", name: name})
	return nil
}

func (m *memFS) syncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logLocked(memOp{kind: "syncdir", name: dir})
	return nil
}

// memFile is an open memFS file; it follows its inode across renames.
type memFile struct {
	fs  *memFS
	ino *memInode
}

// nameLocked is the file's current name, "" once it is unlinked.
func (f *memFile) nameLocked() string {
	for name, ino := range f.fs.files {
		if ino == f.ino {
			return name
		}
	}
	return ""
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.data = append(f.ino.data, p...)
	f.fs.logLocked(memOp{kind: "write", name: f.nameLocked(), data: slices.Clone(p)})
	return len(p), nil
}

func (f *memFile) op(kind string) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.logLocked(memOp{kind: kind, name: f.nameLocked()})
	return nil
}

func (f *memFile) Sync() error  { return f.op("sync") }
func (f *memFile) Close() error { return f.op("close") }

// framesIn decodes the complete frames in one write's bytes, after the
// magic header if the write starts with it; a torn frame yields nothing.
func framesIn(t *testing.T, data []byte) []Entry {
	t.Helper()
	if len(data) >= len(magic) && string(data[:len(magic)]) == string(magic) {
		data = data[len(magic):]
	}
	var entries []Entry
	for len(data) >= frameHeader {
		end := frameHeader + int(binary.LittleEndian.Uint32(data))
		if end > len(data) {
			break
		}
		var e Entry
		if err := json.Unmarshal(data[frameHeader:end], &e); err != nil {
			t.Fatalf("a written frame does not decode: %v", err)
		}
		entries = append(entries, e)
		data = data[end:]
	}
	return entries
}

// journalModel is what a journal must replay to after a crash: per file
// name, the entries whose frames were written whole. A truncate drops
// only a torn tail, so it changes nothing; a rename moves a file's
// entries, so a compaction's snapshot replaces the history only once its
// rename has completed.
type journalModel map[string][]Entry

func (m journalModel) apply(t *testing.T, op memOp) {
	switch op.kind {
	case "write":
		m[op.name] = append(m[op.name], framesIn(t, op.data)...)
	case "create":
		m[op.name] = nil
	case "rename":
		m[op.to] = m[op.name]
		delete(m, op.name)
	case "remove":
		delete(m, op.name)
	}
}

// state folds the entries of the file at path.
func (m journalModel) state(path string) State {
	var st State
	for _, e := range m[path] {
		st.apply(e)
		st.Entries++
	}
	return st
}

func describe(st State) string {
	snap := "none"
	if st.Snapshot != nil {
		snap = fmt.Sprintf("N=%d", st.Snapshot.Campaign.Joint.N)
	}
	return fmt.Sprintf("phase %v, %d entries, snapshot %s", st.Phase, st.Entries, snap)
}

// A crash cut at every write boundary, and torn inside every write,
// replays to exactly the entries whose frames were written whole — no
// quarantine, no lost history — whatever the journal was doing: its
// first header, appends, a re-open over a torn tail, or a compaction.
func TestJournalCrashAtEveryWrite(t *testing.T) {
	const path = "j/unit.journal"
	mem := newMemFS(nil)
	w, st, err := open(mem, path)
	if err != nil || st.Entries != 0 {
		t.Fatalf("fresh open: %s, err %v", describe(st), err)
	}
	entries := sampleEntries()
	for _, e := range entries {
		w.Append(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash in an earlier life left half a frame at the tail.
	torn, err := encodeFrame(Entry{Kind: KindReleaseRemove, Time: 6, Release: &Release{Version: "1.0"}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := mem.openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	w, st, err = open(mem, path)
	if err != nil || !st.TornTail || st.Entries != len(entries) {
		t.Fatalf("re-open over a torn tail: %s, torn %v, err %v", describe(st), st.TornTail, err)
	}
	if err := w.Compact(Entry{Kind: KindSnapshot, Time: 7, Snapshot: &Snapshot{
		Phase:    lifecycle.PhaseParallel,
		Releases: []Release{{Version: "1.0", URL: "http://old/"}, {Version: "2.0", URL: "http://new/"}},
		Campaign: monitor.CampaignState{Joint: bayes.JointCounts{N: 150, BOnly: 3}},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Append(Entry{Kind: KindReleaseRemove, Time: 8, Release: &Release{Version: "1.0"}})
	w.Append(Entry{Kind: KindTransition, Time: 9, Transition: &lifecycle.Transition{
		From: lifecycle.PhaseParallel, To: lifecycle.PhaseNewOnly, Cause: lifecycle.CausePolicy}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(cut string, image map[string][]byte, want State) {
		t.Helper()
		m := newMemFS(image)
		w, got, err := open(m, path)
		if err != nil {
			t.Fatalf("cut %s: Open: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("cut %s: Close: %v", cut, err)
		}
		got.TornTail = false
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %s: replayed %s, want %s", cut, describe(got), describe(want))
		}
		if m.files[path+tmpSuffix] != nil {
			t.Fatalf("cut %s: Open left the temporary file", cut)
		}
	}

	model := journalModel{}
	image := map[string][]byte{}
	for i, op := range mem.ops {
		if op.kind == "write" {
			for n := 1; n < len(op.data); n++ {
				torn := maps.Clone(image)
				torn[op.name] = append(slices.Clone(image[op.name]), op.data[:n]...)
				check(fmt.Sprintf("inside op %d (write %s, %d of %d bytes)", i, op.name, n, len(op.data)),
					torn, model.state(path))
			}
		}
		model.apply(t, op)
		image = op.image
		check(fmt.Sprintf("after op %d (%s %s)", i, op.kind, op.name), image, model.state(path))
	}
	if got := model.state(path); got.Phase != lifecycle.PhaseNewOnly || got.Entries != 3 {
		t.Fatalf("the uncut journal models %s, want the compacted snapshot and two entries", describe(got))
	}
}

// A crash before compaction's rename leaves the temporary file beside
// an untouched journal: the next Open removes it and replays the
// journal as it was.
func TestOpenRemovesStaleTemporary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit.journal")
	data := journalBytes(t, sampleEntries())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := encodeFrame(sampleEntries()[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+tmpSuffix, append(slices.Clone(magic), snap[:len(snap)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	w, st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(sampleEntries()) || st.TornTail || st.Phase != lifecycle.PhaseParallel {
		t.Fatalf("replayed %s, torn %v: want the untouched journal", describe(st), st.TornTail)
	}
	if _, err := os.Stat(path + tmpSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale temporary still there: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(data) {
		t.Fatalf("journal changed by Open (err %v)", err)
	}
}
