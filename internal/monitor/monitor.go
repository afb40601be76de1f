// Package monitor is the middleware's monitoring subsystem (§4.3): for
// every consumer invocation it records, per deployed release, the
// availability (was a response received within the timeout), the
// execution time, and the judged correctness of the response; it
// maintains the joint observation record (Table 1) that feeds the
// Bayesian confidence engine; and it keeps an event log for further
// analysis (the "Data Base" of Figs 3-5), optionally streamed to a JSONL
// writer.
//
// A Monitor is safe for concurrent use by the request handlers of the
// upgrade middleware, and is built for them: writes (Note) are striped
// across lock-sharded accumulators so concurrent recorders do not
// serialize on one mutex, release names are interned to dense indices
// (Intern) so per-observation aggregation is a slice index rather than
// a map lookup under the shard lock, and the bounded event log is a
// sequence-stamped ring with per-slot locking. Reads (Joint, JointFor, Stats,
// SlowResponses) aggregate across the shards; because every record lands
// in exactly one shard, aggregated totals are exact — no observation is
// double-counted or lost — although a read that races a write may or may
// not include that single in-flight record.
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/stats"
)

// ErrUnknownRelease reports a query for a release never observed.
var ErrUnknownRelease = errors.New("monitor: unknown release")

// ReleaseID is a dense interned index for a release version string,
// assigned by Intern. IDs are 1-based; the zero value means "not
// interned" and makes the zero Observation safe. IDs are only meaningful
// for the Monitor that issued them.
type ReleaseID int32

// Observation is one release's behaviour on one intercepted demand.
type Observation struct {
	// Release is the release's version string.
	Release string `json:"release"`
	// ID optionally carries this Monitor's interned index for Release
	// (from Intern), letting Note aggregate by slice index instead of a
	// map lookup per observation. Zero — or an ID that does not match
	// Release — falls back to interning by name.
	ID ReleaseID `json:"-"`
	// Responded reports whether a response arrived within the timeout.
	Responded bool `json:"responded"`
	// Evident reports an evident failure (fault, transport error, or —
	// when Responded is false — the timeout itself).
	Evident bool `json:"evident"`
	// Judged reports whether the oracle judged correctness.
	Judged bool `json:"judged"`
	// Failed is the oracle's verdict (meaningful when Judged).
	Failed bool `json:"failed"`
	// Latency is the observed execution time.
	Latency time.Duration `json:"latency_ns"`
	// Body is input only: the reply as the judgment pass saw it, which
	// may alias a pooled buffer recycled the moment Note returns. Note
	// records its length and keeps nothing of it; a logged Body is nil.
	Body []byte `json:"-"`
	// BodyLen is the length of the Body that came into Note; the monitor
	// sets it at the record boundary, callers leave it zero.
	BodyLen int `json:"-"`
}

// Record is one intercepted demand with all its release observations.
// Note keeps none of a Record's memory past its return — it copies the
// observations it logs and only measures the bytes their Body fields
// alias — so callers may recycle both.
type Record struct {
	// Time is the interception timestamp.
	Time time.Time `json:"time"`
	// Operation is the invoked operation name.
	Operation string `json:"operation"`
	// Releases holds one observation per deployed release.
	Releases []Observation `json:"releases"`
	// Winner is the release whose response was delivered ("" if none).
	Winner string `json:"winner,omitempty"`
	// Joint is the pairwise outcome for the (old, new) release pair fed
	// to the white-box inference; zero when not derivable.
	Joint bayes.JointOutcome `json:"joint,omitempty"`
}

// ReleaseStats aggregates one release's observed behaviour.
type ReleaseStats struct {
	// Release is the version string.
	Release string
	// Demands counts observations.
	Demands int
	// Responses counts demands with a response within the timeout.
	Responses int
	// Evident counts evident failures.
	Evident int
	// JudgedFailures counts oracle-judged failures (evident or not).
	JudgedFailures int
	// MeanLatency is the mean observed execution time.
	MeanLatency time.Duration
	// MaxLatency is the slowest observed execution time.
	MaxLatency time.Duration
}

// Availability is the fraction of demands that produced a response
// within the timeout (§2: availability including responsiveness).
func (s ReleaseStats) Availability() float64 {
	if s.Demands == 0 {
		return 0
	}
	return float64(s.Responses) / float64(s.Demands)
}

// The latency histogram behind SlowResponses is latencyBinCount equal
// bins over [0, latencyRange), each ≈ 29.3 ms wide: every latency under
// 29 ms lands in bin 0 (the defect PR 14 fixed in loadgen's histogram),
// which is the rounding SlowResponses documents and tests. Means and
// maxima come from the exact stats.Summary beside it.
const (
	latencyBinCount = 2048
	latencyRange    = 60 * time.Second
)

// numShards stripes the write path. Must be a power of two. 32 shards
// keep mutex hand-offs negligible up to well past the core counts this
// middleware deploys on, at ~(releases × 16 KiB) memory per shard.
const numShards = 32

type releaseAgg struct {
	demands, responses, evident, judgedFailed int
	// overflow counts responses whose latency was at or beyond the
	// histogram range: they are clamped into the top bin (totals always
	// balance) but SlowResponses needs to know they exist when the
	// queried threshold itself lies beyond the range.
	overflow    int
	latency     stats.Summary
	latencyHist *stats.Histogram
}

// merge folds another accumulator into agg.
func (agg *releaseAgg) merge(o *releaseAgg) {
	agg.demands += o.demands
	agg.responses += o.responses
	agg.evident += o.evident
	agg.judgedFailed += o.judgedFailed
	agg.overflow += o.overflow
	agg.latency.Merge(o.latency)
	if err := agg.latencyHist.Merge(o.latencyHist); err != nil {
		panic("monitor: merging latency histograms: " + err.Error()) // identical static bounds, unreachable
	}
}

func newReleaseAgg() *releaseAgg {
	hist, err := stats.NewHistogram(0, latencyRange.Seconds(), latencyBinCount)
	if err != nil {
		panic("monitor: latency histogram: " + err.Error()) // static bounds, unreachable
	}
	return &releaseAgg{latencyHist: hist}
}

// shard is one lock-striped bucket of the observation store. Per-release
// accumulators are indexed by interned ReleaseID (slot id-1, nil until
// this shard's first observation of that release), so the write path
// under the shard lock is a slice index, not a map lookup per
// observation.
type shard struct {
	mu    sync.Mutex
	aggs  []*releaseAgg
	joint bayes.JointCounts
	perOp map[string]bayes.JointCounts
}

// agg returns the shard's accumulator for an interned release, creating
// it on first sight. Callers hold sh.mu.
func (sh *shard) agg(id ReleaseID) *releaseAgg {
	idx := int(id) - 1
	if idx >= len(sh.aggs) {
		grown := make([]*releaseAgg, idx+1)
		copy(grown, sh.aggs)
		sh.aggs = grown
	}
	a := sh.aggs[idx]
	if a == nil {
		a = newReleaseAgg()
		sh.aggs[idx] = a
	}
	return a
}

// internTable is the immutable release-name interning state, swapped
// atomically so Note's lookups are lock-free.
type internTable struct {
	ids   map[string]ReleaseID
	names []string // names[id-1] — the reverse mapping
}

// Monitor accumulates records. Construct with New.
type Monitor struct {
	shards [numShards]*shard
	// next round-robins Note calls across the shards; uniform striping
	// beats key hashing here because one hot operation must still spread.
	next atomic.Uint64

	// intern maps release names to dense indices (copy-on-write; readers
	// never lock, writers serialize on internMu).
	intern   atomic.Pointer[internTable]
	internMu sync.Mutex

	ring *logRing // nil when the event log is disabled

	sinkMu  sync.Mutex
	sink    io.Writer
	sinkErr error

	logCap int
}

var _ bayes.JointSource = (*Monitor)(nil)

// Option configures a Monitor.
type Option func(*Monitor)

// WithLogCapacity bounds the in-memory event log (default 4096 records;
// older records are dropped first; 0 disables the log).
func WithLogCapacity(n int) Option {
	return func(m *Monitor) { m.logCap = n }
}

// WithSink streams every record as one JSON line to w (the persistent
// "Data Base" of the architecture diagrams). Write errors are remembered
// and reported by Err; recording continues in memory.
func WithSink(w io.Writer) Option {
	return func(m *Monitor) { m.sink = w }
}

// New returns an empty monitor.
func New(opts ...Option) *Monitor {
	m := &Monitor{logCap: 4096}
	for i := range m.shards {
		m.shards[i] = &shard{
			perOp: make(map[string]bayes.JointCounts),
		}
	}
	for _, o := range opts {
		o(m)
	}
	if m.logCap > 0 {
		m.ring = newLogRing(m.logCap)
	}
	return m
}

// Intern returns the dense index for a release name, assigning the next
// one on first sight. Lookups are a lock-free load of the immutable
// table; assignment copies the table under a mutex. Recording paths that
// observe the same releases on every demand should intern once and carry
// the ID on their Observations.
func (m *Monitor) Intern(release string) ReleaseID {
	if t := m.intern.Load(); t != nil {
		if id, ok := t.ids[release]; ok {
			return id
		}
	}
	m.internMu.Lock()
	defer m.internMu.Unlock()
	old := m.intern.Load()
	if old != nil {
		if id, ok := old.ids[release]; ok {
			return id
		}
	}
	next := &internTable{}
	if old != nil {
		next.ids = make(map[string]ReleaseID, len(old.ids)+1)
		for k, v := range old.ids {
			next.ids[k] = v
		}
		next.names = append(append([]string(nil), old.names...), release)
	} else {
		next.ids = make(map[string]ReleaseID, 1)
		next.names = []string{release}
	}
	id := ReleaseID(len(next.names))
	next.ids[release] = id
	m.intern.Store(next)
	return id
}

// lookup resolves a release name to its interned ID (0 when never
// interned).
func (m *Monitor) lookup(release string) ReleaseID {
	if t := m.intern.Load(); t != nil {
		return t.ids[release]
	}
	return 0
}

// resolve returns the trusted interned ID for one observation: the
// pre-interned ID when it matches the observation's release name, or a
// fresh interning by name (IDs from a different Monitor must not
// aggregate into the wrong slot).
func (m *Monitor) resolve(t *internTable, obs *Observation) ReleaseID {
	if id := obs.ID; id > 0 && t != nil && int(id) <= len(t.names) && t.names[id-1] == obs.Release {
		return id
	}
	return m.Intern(obs.Release)
}

// Note records one demand. The no-sink configuration is the judgment
// hot path and must stay allocation-free; the sink write (which
// marshals) lives in sinkWrite so its allocations stay outside Note's
// checked span.
//
//wsu:noalloc
func (m *Monitor) Note(rec Record) {
	t := m.intern.Load()
	sh := m.shards[m.next.Add(1)&(numShards-1)]
	sh.mu.Lock()
	for i := range rec.Releases {
		obs := &rec.Releases[i]
		agg := sh.agg(m.resolve(t, obs))
		agg.demands++
		if obs.Responded {
			sec := obs.Latency.Seconds()
			agg.responses++
			agg.latency.Observe(sec)
			agg.latencyHist.Observe(sec)
			if sec >= latencyRange.Seconds() {
				agg.overflow++
			}
		}
		if obs.Evident {
			agg.evident++
		}
		if obs.Judged && obs.Failed {
			agg.judgedFailed++
		}
	}
	if rec.Joint != 0 {
		sh.joint.Add(rec.Joint)
		if rec.Operation != "" {
			perOp := sh.perOp[rec.Operation]
			perOp.Add(rec.Joint)
			sh.perOp[rec.Operation] = perOp
		}
	}
	sh.mu.Unlock()

	if m.ring != nil {
		m.ring.add(rec)
	}
	if m.sink != nil {
		m.sinkWrite(rec)
	}
}

// sinkWrite marshals one record to the configured sink. It allocates by
// nature (JSON encoding), which is why it lives outside Note's
// //wsu:noalloc span.
func (m *Monitor) sinkWrite(rec Record) {
	// Marshalling runs outside every lock; only the actual write is
	// serialized, since io.Writer interleaving must stay line-atomic.
	line, err := json.Marshal(rec)
	m.sinkMu.Lock()
	if err == nil {
		line = append(line, '\n')
		_, err = m.sink.Write(line)
	}
	if err != nil && m.sinkErr == nil {
		m.sinkErr = fmt.Errorf("monitor: writing sink: %w", err)
	}
	m.sinkMu.Unlock()
}

// Err reports the first sink write error, if any.
func (m *Monitor) Err() error {
	m.sinkMu.Lock()
	defer m.sinkMu.Unlock()
	return m.sinkErr
}

// Joint returns the accumulated pairwise observation record (Table 1)
// for the Bayesian inference.
func (m *Monitor) Joint() bayes.JointCounts {
	var total bayes.JointCounts
	for _, sh := range m.shards {
		sh.mu.Lock()
		total.Merge(sh.joint)
		sh.mu.Unlock()
	}
	return total
}

// JointFor returns the pairwise observation record restricted to one
// operation — the §6.2 per-operation confidence is computed from it.
func (m *Monitor) JointFor(operation string) bayes.JointCounts {
	var total bayes.JointCounts
	for _, sh := range m.shards {
		sh.mu.Lock()
		total.Merge(sh.perOp[operation])
		sh.mu.Unlock()
	}
	return total
}

// mergedAgg aggregates one release's accumulators across every shard.
func (m *Monitor) mergedAgg(release string) (*releaseAgg, bool) {
	id := m.lookup(release)
	if id == 0 {
		return nil, false
	}
	idx := int(id) - 1
	var merged *releaseAgg
	for _, sh := range m.shards {
		sh.mu.Lock()
		if idx < len(sh.aggs) && sh.aggs[idx] != nil {
			if merged == nil {
				merged = newReleaseAgg()
			}
			merged.merge(sh.aggs[idx])
		}
		sh.mu.Unlock()
	}
	return merged, merged != nil
}

// SlowResponses returns how many of a release's demands either produced
// no response at all or responded slower than the threshold — the
// numerator of the §6.1 responsiveness attribute. The count is computed
// from a 2048-bin latency histogram, so thresholds are resolved to
// ~30 ms granularity: a threshold inside a bin charges that whole bin as
// fast (the conservative rounding), while a threshold on a bin boundary
// charges the bin above it as slow. Latencies at or beyond the histogram
// range are tracked explicitly, so a threshold beyond the range still
// counts them instead of silently reporting zero slow responses —
// unless the slowest observed response was itself within the threshold,
// in which case nothing was slow.
func (m *Monitor) SlowResponses(release string, threshold time.Duration) (slow, demands int, err error) {
	agg, ok := m.mergedAgg(release)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownRelease, release)
	}
	noResponse := agg.demands - agg.responses
	// Count responses in bins entirely above the threshold: the first
	// bin whose lower edge is at or past the threshold. This is a ceil —
	// int(x/w)+1 skipped one fully-above bin whenever the threshold
	// landed exactly on a bin boundary.
	binWidth := latencyRange.Seconds() / latencyBinCount
	sec := threshold.Seconds()
	firstAbove := int(sec / binWidth)
	if float64(firstAbove)*binWidth < sec {
		firstAbove++
	}
	if firstAbove < 0 {
		firstAbove = 0
	}
	slowResponded := 0
	if firstAbove < latencyBinCount {
		for i := firstAbove; i < latencyBinCount; i++ {
			slowResponded += agg.latencyHist.Counts[i]
		}
	} else if agg.latency.Max() > sec {
		// The threshold is at or beyond the histogram range: every
		// in-range latency is fast, and the histogram cannot resolve
		// the responses clamped into the top bin (>= the range) any
		// further. When the slowest observed response did exceed the
		// threshold, count all over-range responses rather than
		// undercount the §6.1 numerator to zero — the documented
		// granularity limit beyond the range. When even the slowest
		// response was within the threshold, nothing was slow.
		slowResponded = agg.overflow
	}
	return noResponse + slowResponded, agg.demands, nil
}

// Stats returns one release's aggregate behaviour.
func (m *Monitor) Stats(release string) (ReleaseStats, error) {
	agg, ok := m.mergedAgg(release)
	if !ok {
		return ReleaseStats{}, fmt.Errorf("%w: %q", ErrUnknownRelease, release)
	}
	return ReleaseStats{
		Release:        release,
		Demands:        agg.demands,
		Responses:      agg.responses,
		Evident:        agg.evident,
		JudgedFailures: agg.judgedFailed,
		MeanLatency:    time.Duration(agg.latency.Mean() * float64(time.Second)),
		MaxLatency:     time.Duration(agg.latency.Max() * float64(time.Second)),
	}, nil
}

// Releases lists the observed release versions (unordered). Releases
// that were interned but never observed are not listed.
func (m *Monitor) Releases() []string {
	t := m.intern.Load()
	if t == nil {
		return nil
	}
	seen := make([]bool, len(t.names))
	for _, sh := range m.shards {
		sh.mu.Lock()
		for idx, agg := range sh.aggs {
			if agg != nil && idx < len(seen) {
				seen[idx] = true
			}
		}
		sh.mu.Unlock()
	}
	out := make([]string, 0, len(t.names))
	for idx, ok := range seen {
		if ok {
			out = append(out, t.names[idx])
		}
	}
	return out
}

// Log returns a copy of the retained event records, oldest first (empty
// when the log is disabled).
func (m *Monitor) Log() []Record {
	if m.ring == nil {
		return nil
	}
	return m.ring.snapshot()
}

// ---------------------------------------------------------------------------
// Event-log ring

// logRing is a bounded, sequence-stamped ring of records. A global
// atomic ticket assigns each record a slot, so writers contend only when
// two of them land exactly capacity apart; eviction of the oldest record
// is an O(1) overwrite rather than the O(capacity) shift of a sliced
// queue.
type logRing struct {
	seq   atomic.Uint64 // records ever written; slot = (seq-1) % len(slots)
	slots []logSlot
}

type logSlot struct {
	mu  sync.Mutex
	seq uint64 // 0 = never written
	rec Record
}

func newLogRing(capacity int) *logRing {
	return &logRing{slots: make([]logSlot, capacity)}
}

// add is on the judgment hot path (Note calls it whenever the log is
// enabled) and allocates only when the per-demand observation count
// grows past anything the slot has seen — steady state recycles the
// slot's own backing.
//
//wsu:noalloc
func (r *logRing) add(rec Record) {
	n := r.seq.Add(1)
	s := &r.slots[(n-1)%uint64(len(r.slots))]
	s.mu.Lock()
	// A writer that stalled between taking its ticket and locking the
	// slot must not clobber a newer record that lapped it.
	if n > s.seq {
		s.seq = n
		// What the releases did, not what they said: the observations go
		// into the slot's own backing (reused across laps) and each body
		// is reduced to its length, so the ring holds no caller's memory.
		releases := s.rec.Releases
		s.rec = rec
		s.rec.Releases = append(releases[:0], rec.Releases...)
		for i := range s.rec.Releases {
			obs := &s.rec.Releases[i]
			obs.BodyLen, obs.Body = len(obs.Body), nil
		}
	}
	s.mu.Unlock()
}

// snapshot returns the retained records ordered oldest first.
func (r *logRing) snapshot() []Record {
	type entry struct {
		seq uint64
		rec Record
	}
	entries := make([]entry, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			e := entry{s.seq, s.rec}
			// The slot's backing is overwritten in place when the ring laps:
			// the snapshot copies it while the slot lock still protects it.
			e.rec.Releases = append([]Observation(nil), s.rec.Releases...)
			entries = append(entries, e)
		}
		s.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]Record, len(entries))
	for i, e := range entries {
		out[i] = e.rec
	}
	return out
}
