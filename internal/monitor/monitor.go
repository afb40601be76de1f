// Package monitor is the middleware's monitoring subsystem (§4.3): for
// every consumer invocation it records, per deployed release, the
// availability (was a response received within the timeout), the
// execution time, and the judged correctness of the response; it
// maintains the joint observation record (Table 1) that feeds the
// Bayesian confidence engine; and it streams every demand's record, as
// one JSON line, to the sink that is the "Data Base" of Figs 3-5. It
// keeps only aggregates in memory: the sink is the one place a demand's
// record goes.
//
// A Monitor is safe for concurrent use by the request handlers of the
// upgrade middleware. One mutex guards the whole record — the interned
// release names, the per-release counters and the joint records — so
// every read (Joint, JointFor, Stats, SlowResponses, CampaignState) is
// one consistent cut: it includes a concurrent Note entirely or not at
// all. The critical section is ~85 ns inside a demand that costs
// ≥ 60 µs end to end (DECISIONS.md, "the monitor holds one lock").
// Release names are interned to dense indices (Intern) so
// per-observation aggregation is a slice index rather than a map lookup;
// the JSONL sink marshals and writes outside that lock, under its own.
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
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
	// Body is ignored: the monitor reads and keeps nothing of a reply.
	// It remains because the benchmark module's probe still sets it.
	Body []byte `json:"-"`
}

// Record is one intercepted demand with all its release observations.
// Note keeps none of a Record's memory past its return — the sink's line
// is written before it returns — so callers may recycle it.
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
	// MeanLatency is the mean execution time of the responses received
	// within the timeout; a demand with no response adds nothing to it.
	MeanLatency time.Duration
	// MaxLatency is the slowest of those responses.
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

// The latency histogram behind SlowResponses is latencyBinCount bins
// spaced logarithmically over [latencyFloor, latencyRange), each ≈ 0.8 %
// wide, as loadgen's is; bin 0 also holds every faster response. Means
// and maxima come from the exact stats.Summary beside it.
const (
	latencyBinCount = 2048
	latencyFloor    = 10 * time.Microsecond
	latencyRange    = 60 * time.Second
)

// latencyEdges[i] is the lower edge of latency bin i, in seconds. Note
// and SlowResponses both search this one table, so a latency and a
// threshold on the same edge always agree on which side of it they are.
var latencyEdges = func() (edges [latencyBinCount]float64) {
	for i := range edges {
		edges[i] = latencyFloor.Seconds() * math.Pow(latencyRange.Seconds()/latencyFloor.Seconds(), float64(i)/latencyBinCount)
	}
	return edges
}()

type releaseAgg struct {
	demands, responses, evident, judgedFailed int
	// overflow counts responses at or beyond latencyRange, which no bin
	// holds: bins plus overflow add up to responses.
	overflow int
	latency  stats.Summary
	bins     [latencyBinCount]int
}

// Monitor accumulates records. Construct with New.
type Monitor struct {
	// mu guards the whole record below, down to perOp.
	mu sync.Mutex
	// names and ids are the release interning: names[id-1] is the
	// release, ids the reverse map. aggs[id-1] is that release's
	// accumulator, nil until its first observation (an interned release
	// nobody observed is still unknown to Stats and Releases).
	names []string
	ids   map[string]ReleaseID
	aggs  []*releaseAgg
	joint bayes.JointCounts
	perOp map[string]bayes.JointCounts

	// sinkMu serializes sink writes, which happen outside mu.
	sinkMu  sync.Mutex
	sink    io.Writer
	sinkErr error
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithLogCapacity does nothing: a monitor keeps no records in memory,
// only aggregates, and WithSink is where records go. It remains because
// the benchmark module's probe still passes it.
func WithLogCapacity(int) Option {
	return func(*Monitor) {}
}

// WithSink streams every record as one JSON line to w (the persistent
// "Data Base" of the architecture diagrams). Write errors are remembered
// and reported by Err; the aggregates go on counting.
func WithSink(w io.Writer) Option {
	return func(m *Monitor) { m.sink = w }
}

// New returns an empty monitor.
func New(opts ...Option) *Monitor {
	m := &Monitor{
		ids:   make(map[string]ReleaseID),
		perOp: make(map[string]bayes.JointCounts),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Intern returns the dense index for a release name, assigning the next
// one on first sight. Recording paths that observe the same releases on
// every demand should intern once and carry the ID on their
// Observations.
func (m *Monitor) Intern(release string) ReleaseID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.intern(release)
}

// intern is Intern with m.mu held.
func (m *Monitor) intern(release string) ReleaseID {
	id, ok := m.ids[release]
	if !ok {
		m.names = append(m.names, release)
		m.aggs = append(m.aggs, nil)
		id = ReleaseID(len(m.names))
		m.ids[release] = id
	}
	return id
}

// resolve returns the trusted interned ID for one observation: the
// pre-interned ID when it matches the observation's release name, or the
// one found by name (IDs from a different Monitor must not aggregate
// into the wrong slot). Callers hold m.mu.
func (m *Monitor) resolve(obs *Observation) ReleaseID {
	if id := obs.ID; id > 0 && int(id) <= len(m.names) && m.names[id-1] == obs.Release {
		return id
	}
	return m.intern(obs.Release)
}

// agg returns an interned release's accumulator, creating it on first
// sight. Callers hold m.mu.
func (m *Monitor) agg(id ReleaseID) *releaseAgg {
	if m.aggs[id-1] == nil {
		m.aggs[id-1] = new(releaseAgg)
	}
	return m.aggs[id-1]
}

// Note records one demand. The no-sink configuration is the judgment
// hot path and must stay allocation-free; the sink write (which
// marshals) lives in sinkWrite so its allocations stay outside Note's
// checked span.
//
//wsu:noalloc
func (m *Monitor) Note(rec Record) {
	m.mu.Lock()
	for i := range rec.Releases {
		obs := &rec.Releases[i]
		//wsu:allow noalloc -- a release's accumulator, on its first observation only
		agg := m.agg(m.resolve(obs))
		agg.demands++
		if obs.Responded {
			sec := obs.Latency.Seconds()
			agg.responses++
			agg.latency.Observe(sec)
			if sec < latencyRange.Seconds() {
				// The last bin whose lower edge is at or below sec, or bin 0.
				above := sort.Search(latencyBinCount, func(i int) bool { return latencyEdges[i] > sec })
				agg.bins[max(above-1, 0)]++
			} else {
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
		m.joint.Add(rec.Joint)
		if rec.Operation != "" {
			perOp := m.perOp[rec.Operation]
			perOp.Add(rec.Joint)
			m.perOp[rec.Operation] = perOp
		}
	}
	m.mu.Unlock()

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
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.joint
}

// JointFor returns the pairwise observation record restricted to one
// operation — the §6.2 per-operation confidence is computed from it.
func (m *Monitor) JointFor(operation string) bayes.JointCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perOp[operation]
}

// observed returns a release's accumulator, or ErrUnknownRelease when no
// observation of it was ever recorded. Callers hold m.mu.
func (m *Monitor) observed(release string) (*releaseAgg, error) {
	if id := m.ids[release]; id != 0 && m.aggs[id-1] != nil {
		return m.aggs[id-1], nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownRelease, release)
}

// SlowResponses returns how many of a release's demands either produced
// no response at all or responded slower than the threshold — the
// numerator of the §6.1 responsiveness attribute. The count is computed
// from the latency histogram, so thresholds are resolved to its ≈ 0.8 %
// bins: a threshold inside a bin charges that whole bin as fast (the
// conservative rounding), while a threshold on a bin's lower edge
// charges that bin as slow. Responses at or beyond the histogram range
// are all slow against a threshold inside it; against one beyond it,
// all of them are slow if the slowest was, and none otherwise.
func (m *Monitor) SlowResponses(release string, threshold time.Duration) (slow, demands int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg, err := m.observed(release)
	if err != nil {
		return 0, 0, err
	}
	// The first bin whose lower edge is at or past the threshold; bin 0
	// reaches down to zero.
	firstAbove := sort.Search(latencyBinCount, func(i int) bool { return latencyEdges[i] >= threshold.Seconds() })
	if threshold > 0 {
		firstAbove = max(firstAbove, 1)
	}
	slow = agg.demands - agg.responses
	for _, n := range agg.bins[firstAbove:] {
		slow += n
	}
	if firstAbove < latencyBinCount || agg.latency.Max() > threshold.Seconds() {
		slow += agg.overflow
	}
	return slow, agg.demands, nil
}

// Stats returns one release's aggregate behaviour.
func (m *Monitor) Stats(release string) (ReleaseStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg, err := m.observed(release)
	if err != nil {
		return ReleaseStats{}, err
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
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for idx, agg := range m.aggs {
		if agg != nil {
			out = append(out, m.names[idx])
		}
	}
	return out
}
