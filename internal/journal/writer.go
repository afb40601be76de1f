package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"
	"sync/atomic"
)

// ErrClosed reports an operation on a closed Writer.
var ErrClosed = errors.New("journal: writer closed")

const (
	// defaultQueue bounds the append queue: ample for a journal's
	// management-rate events, 1 024 demand records for a line writer.
	// When it fills (a stalled destination), appends are dropped and
	// counted rather than ever blocking the caller.
	defaultQueue = 1024
	// maxBatch caps how many queued frames one batch (one fsync) covers.
	maxBatch = 256
)

// wreq is one unit of work for the writer goroutine.
type wreq struct {
	// frame is an encoded record to append.
	frame []byte
	// compact, when set, replaces the journal with one holding just
	// this frame (after the magic header) before later requests append.
	compact []byte
	// ack, when non-nil, receives the writer's sticky error after this
	// request's batch has been written and synced — the Flush barrier.
	ack chan error
}

// Writer appends to its destination from a dedicated goroutine: Append
// and AppendJSON never block and never touch the destination on the
// caller's stack, so a durable stream can hang off lifecycle hooks or a
// demand's outcome without putting I/O on the paths that fire them.
// Queued frames are drained in batches, written, and in a journal file
// (Open, not NewLineWriter) covered by a single fsync per batch.
//
// Write and sync failures are sticky: the first one is reported by
// Err (and by every later Flush), while subsequent appends are still
// attempted — a transiently failing disk loses records (visible via
// Err) rather than wedging the caller. A full queue, or a closed
// writer, drops the append and counts it; Close reports the count.
type Writer struct {
	ch   chan wreq
	quit chan struct{}
	done chan struct{}

	// drops counts appends discarded because the queue was full or the
	// writer closed.
	drops atomic.Uint64

	// mu guards err, the first failure, and closed, which orders Append's
	// enqueue against Close: once it is set nothing more reaches ch, so
	// the loop's final drain writes every frame that got in and the rest
	// are counted as drops.
	mu     sync.Mutex
	err    error
	closed bool

	out io.Writer
	// f is out if it is a journal file (Open): synced after each batch,
	// replaced by Compact, closed by Close. fsys and path are where it
	// lives.
	f    file
	fsys fileSystem
	path string
}

// Open replays the journal at path (creating it if absent), truncates
// any torn tail back to the last valid frame, and returns a running
// Writer positioned to append, along with the replayed State. Damage
// beyond a torn tail returns a *CorruptError and no writer: the caller
// decides whether to quarantine the file (see OpenOrQuarantine).
func Open(path string) (*Writer, State, error) {
	return open(osFS{}, path)
}

// open is Open over a file seam.
func open(fsys fileSystem, path string) (*Writer, State, error) {
	// A crash inside replace leaves its temporary file and the journal
	// as it was before.
	if err := fsys.remove(path + tmpSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, State{}, fmt.Errorf("journal: removing a stale temporary of %s: %w", path, err)
	}
	data, err := fsys.readFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, State{}, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	st, validEnd, derr := Decode(data)
	if derr != nil {
		return nil, st, fmt.Errorf("replaying %s: %w", path, derr)
	}
	var f file
	switch {
	case validEnd < len(magic):
		// Fresh file, or a tail torn inside the header: (re)write it.
		f, err = replace(fsys, path, magic)
	case validEnd < len(data):
		if err = fsys.truncate(path, int64(validEnd)); err == nil {
			f, err = fsys.openAppend(path)
		}
	default:
		f, err = fsys.openAppend(path)
	}
	if err != nil {
		if f != nil {
			_ = f.Close()
		}
		return nil, State{}, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	return start(&Writer{out: f, f: f, fsys: fsys, path: path}), st, nil
}

// NewLineWriter returns a running Writer whose AppendJSON lines go to
// out, one Write per line. It neither syncs nor closes out.
func NewLineWriter(out io.Writer) *Writer {
	return start(&Writer{out: out})
}

// start runs w's writer goroutine.
func start(w *Writer) *Writer {
	w.ch = make(chan wreq, defaultQueue)
	w.quit = make(chan struct{})
	w.done = make(chan struct{})
	go w.loop()
	return w
}

// OpenOrQuarantine opens the journal at path like Open, but a corrupt
// journal is renamed aside to path+".corrupt" and a fresh journal is
// started in its place — a mediator must come up even when its journal
// was damaged at rest; it just starts a new campaign history. The
// returned error is the corruption that was quarantined (the open
// itself succeeded; callers log it).
func OpenOrQuarantine(path string) (*Writer, State, error) {
	w, st, err := Open(path)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		return w, st, err
	}
	corrupt := err
	if rerr := (osFS{}).rename(path, path+".corrupt"); rerr != nil {
		return nil, State{}, errors.Join(corrupt, rerr)
	}
	w, st, err = Open(path)
	if err != nil {
		return nil, State{}, errors.Join(corrupt, err)
	}
	return w, st, corrupt
}

// Append enqueues one journal entry. It never blocks: when the queue is
// full (a stalled disk) or the writer is closed, the entry is dropped
// and counted. Encoding failures are sticky errors, visible via Err.
func (w *Writer) Append(e Entry) {
	if w == nil {
		return
	}
	frame, err := encodeFrame(e)
	if err != nil {
		w.setErr(err)
		return
	}
	w.enqueue(frame)
}

// AppendJSON enqueues v, marshalled on the caller's goroutine, as one JSON
// line. Like Append it never blocks.
func (w *Writer) AppendJSON(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		w.setErr(fmt.Errorf("journal: marshalling a line: %w", err))
		return
	}
	w.enqueue(append(line, '\n'))
}

// enqueue hands one frame to the writer goroutine, or drops and counts it.
func (w *Writer) enqueue(frame []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		w.drops.Add(1)
		return
	}
	select {
	case w.ch <- wreq{frame: frame}:
	default:
		w.drops.Add(1)
	}
}

// Compact replaces the journal, atomically, with one holding just e
// (typically a fresh snapshot of the state recovered at startup),
// bounding file growth across restarts. It blocks until the new file
// is synced and in place.
func (w *Writer) Compact(e Entry) error {
	if w.f == nil {
		return errors.New("journal: Compact on a line writer")
	}
	frame, err := encodeFrame(e)
	if err != nil {
		w.setErr(err)
		return err
	}
	return w.barrier(wreq{compact: frame})
}

// Flush blocks until every entry enqueued before it has been written
// and synced, then reports the writer's sticky error. Tests and
// shutdown paths use it; steady-state journaling never waits.
func (w *Writer) Flush() error {
	return w.barrier(wreq{})
}

// barrier submits req with an ack and waits for it.
func (w *Writer) barrier(req wreq) error {
	req.ack = make(chan error, 1)
	select {
	case w.ch <- req:
	case <-w.done:
		return ErrClosed
	}
	select {
	case err := <-req.ack:
		return err
	case <-w.done:
		return ErrClosed
	}
}

// Err reports the first write/sync/encode error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *Writer) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Close drains the queue and closes a journal file (syncing each batch
// as always). It reports the first write error, joined with how many
// appends were dropped so far: a stream that lost records says so.
// Safe to call more than once; an append that loses the race is a drop.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.quit)
	}
	w.mu.Unlock()
	<-w.done
	err := w.Err()
	if n := w.drops.Load(); n > 0 {
		err = errors.Join(err, fmt.Errorf("journal: %d appends dropped on a full queue or a closed writer", n))
	}
	return err
}

// loop is the writer goroutine: batch-drain, write, one fsync.
func (w *Writer) loop() {
	var batch []wreq
	for {
		var req wreq
		select {
		case req = <-w.ch:
		case <-w.quit:
			// Closed: drain what got in, then close the file.
			select {
			case req = <-w.ch:
			default:
				if w.f != nil {
					if err := w.f.Close(); err != nil {
						w.setErr(err)
					}
				}
				close(w.done)
				return
			}
		}
		batch = w.collect(batch[:0], req)
		w.commit(batch)
	}
}

// collect drains up to maxBatch queued requests without blocking.
func (w *Writer) collect(batch []wreq, first wreq) []wreq {
	batch = append(batch, first)
	for len(batch) < maxBatch {
		select {
		case req := <-w.ch:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// commit writes one batch and covers it with a single fsync of a
// journal file.
func (w *Writer) commit(batch []wreq) {
	wrote := false
	for _, req := range batch {
		if req.compact != nil {
			w.doCompact(req.compact)
		}
		if req.frame != nil {
			wrote = true
			if _, err := w.out.Write(req.frame); err != nil {
				w.setErr(fmt.Errorf("journal: appending: %w", err))
			}
		}
	}
	if wrote && w.f != nil {
		if err := w.f.Sync(); err != nil {
			w.setErr(fmt.Errorf("journal: syncing: %w", err))
		}
	}
	for _, req := range batch {
		if req.ack != nil {
			req.ack <- w.Err()
		}
	}
}

// doCompact replaces the journal with header + one frame (replace), and
// appends to the new file from then on. Until the rename the old
// journal stays whole, and in use if the replace fails.
func (w *Writer) doCompact(frame []byte) {
	f, err := replace(w.fsys, w.path, append(append([]byte(nil), magic...), frame...))
	if f != nil {
		// The old file is no longer the journal: its close is moot.
		_ = w.f.Close()
		w.f, w.out = f, f
	}
	if err != nil {
		w.setErr(fmt.Errorf("journal: compacting %s: %w", w.path, err))
	}
}
