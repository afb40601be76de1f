package journal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
)

// ErrClosed reports an operation on a closed Writer.
var ErrClosed = errors.New("journal: writer closed")

const (
	// defaultQueue bounds the append queue. Transitions and snapshots
	// are management-rate events, so the queue is generous; if it ever
	// fills (a stalled disk), appends are dropped and counted rather
	// than ever blocking the caller.
	defaultQueue = 1024
	// maxBatch caps how many queued frames one fsync covers.
	maxBatch = 256
)

// wreq is one unit of work for the writer goroutine.
type wreq struct {
	// frame is an encoded record to append.
	frame []byte
	// compact, when set, rewrites the journal to just this frame
	// (after the magic header) before later requests append.
	compact []byte
	// ack, when non-nil, receives the writer's sticky error after this
	// request's batch has been written and synced — the Flush barrier.
	ack chan error
}

// Writer appends entries to a journal file from a dedicated goroutine:
// Append never blocks and never touches the disk on the caller's
// stack, so journaling can hang off lifecycle hooks without putting
// I/O on the paths that fire them. Queued frames are drained in
// batches, written, and covered by a single fsync per batch.
//
// Write and sync failures are sticky: the first one is reported by
// Err (and by every later Flush), while subsequent appends are still
// attempted — a transiently failing disk loses records (visible via
// Err) rather than wedging the campaign. A full queue, or a closed
// writer, drops the append and counts it in Drops.
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

	f *os.File
}

// Open replays the journal at path (creating it if absent), truncates
// any torn tail back to the last valid frame, and returns a running
// Writer positioned to append, along with the replayed State. Damage
// beyond a torn tail returns a *CorruptError and no writer: the caller
// decides whether to quarantine the file (see OpenOrQuarantine).
func Open(path string) (*Writer, State, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, State{}, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	st, validEnd, derr := Decode(data)
	if derr != nil {
		return nil, st, fmt.Errorf("replaying %s: %w", path, derr)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, State{}, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	if validEnd < len(magic) {
		// Fresh file, or a tail torn inside the header: (re)write it.
		if err := rewriteHeader(f); err != nil {
			f.Close()
			return nil, State{}, err
		}
	} else {
		if validEnd < len(data) {
			if err := f.Truncate(int64(validEnd)); err != nil {
				f.Close()
				return nil, State{}, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
			}
		}
		if _, err := f.Seek(int64(validEnd), io.SeekStart); err != nil {
			f.Close()
			return nil, State{}, fmt.Errorf("journal: seeking %s: %w", path, err)
		}
	}
	w := &Writer{
		ch:   make(chan wreq, defaultQueue),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		f:    f,
	}
	go w.loop()
	return w, st, nil
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
	if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
		return nil, State{}, errors.Join(corrupt, rerr)
	}
	w, st, err = Open(path)
	if err != nil {
		return nil, State{}, errors.Join(corrupt, err)
	}
	return w, st, corrupt
}

// rewriteHeader resets f to a fresh, synced journal header.
func rewriteHeader(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating %s: %w", f.Name(), err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: seeking %s: %w", f.Name(), err)
	}
	if _, err := f.Write(magic); err != nil {
		return fmt.Errorf("journal: writing header of %s: %w", f.Name(), err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing header of %s: %w", f.Name(), err)
	}
	return nil
}

// Append enqueues one entry. It never blocks: when the queue is full
// (a stalled disk) or the writer is closed, the entry is dropped and
// counted in Drops. Encoding failures are sticky errors, visible via
// Err.
func (w *Writer) Append(e Entry) {
	if w == nil {
		return
	}
	frame, err := encodeFrame(e)
	if err != nil {
		w.setErr(err)
		return
	}
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

// Compact rewrites the journal to contain just e (typically a fresh
// snapshot of the state recovered at startup), bounding file growth
// across restarts. It blocks until the rewrite is synced.
func (w *Writer) Compact(e Entry) error {
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

// Drops reports how many appends were discarded on a full queue or a
// closed writer.
func (w *Writer) Drops() uint64 {
	if w == nil {
		return 0
	}
	return w.drops.Load()
}

// Err reports the first write/sync/encode error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *Writer) setErr(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Close drains the queue, syncs, and closes the file. Safe to call
// more than once; an Append that loses the race is counted in Drops.
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
	return w.Err()
}

// loop is the writer goroutine: batch-drain, write, one fsync.
func (w *Writer) loop() {
	var batch []wreq
	for {
		select {
		case req := <-w.ch:
			batch = w.collect(batch[:0], req)
			w.commit(batch)
		case <-w.quit:
			for {
				select {
				case req := <-w.ch:
					batch = w.collect(batch[:0], req)
					w.commit(batch)
				default:
					if err := w.f.Close(); err != nil {
						w.setErr(err)
					}
					close(w.done)
					return
				}
			}
		}
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

// commit writes one batch and covers it with a single fsync.
func (w *Writer) commit(batch []wreq) {
	wrote := false
	for _, req := range batch {
		if req.compact != nil {
			w.doCompact(req.compact)
		}
		if req.frame != nil {
			if _, err := w.f.Write(req.frame); err != nil {
				w.setErr(fmt.Errorf("journal: appending: %w", err))
			} else {
				wrote = true
			}
		}
	}
	if wrote {
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

// doCompact rewrites the file to header + one frame, synced.
func (w *Writer) doCompact(frame []byte) {
	if err := rewriteHeader(w.f); err != nil {
		w.setErr(err)
		return
	}
	if _, err := w.f.Write(frame); err != nil {
		w.setErr(fmt.Errorf("journal: writing compacted snapshot: %w", err))
		return
	}
	if err := w.f.Sync(); err != nil {
		w.setErr(fmt.Errorf("journal: syncing compacted snapshot: %w", err))
	}
}
