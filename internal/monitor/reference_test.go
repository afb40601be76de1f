package monitor

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/xrand"
)

// refMonitor is the sequential model the monitor must be observationally
// equivalent to: the aggregation semantics written out naively, maps
// keyed by name, no interning, no ring.
type refMonitor struct {
	mu       sync.Mutex
	demands  map[string]int
	resp     map[string]int
	evident  map[string]int
	failed   map[string]int
	latSum   map[string]float64
	latMax   map[string]float64
	latHist  map[string][]int
	overflow map[string]int
	joint    bayes.JointCounts
	perOp    map[string]bayes.JointCounts
	releases map[string]bool
}

func newRefMonitor() *refMonitor {
	return &refMonitor{
		demands:  map[string]int{},
		resp:     map[string]int{},
		evident:  map[string]int{},
		failed:   map[string]int{},
		latSum:   map[string]float64{},
		latMax:   map[string]float64{},
		latHist:  map[string][]int{},
		overflow: map[string]int{},
		perOp:    map[string]bayes.JointCounts{},
		releases: map[string]bool{},
	}
}

func (r *refMonitor) note(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, obs := range rec.Releases {
		r.releases[obs.Release] = true
		r.demands[obs.Release]++
		if obs.Responded {
			r.resp[obs.Release]++
			sec := obs.Latency.Seconds()
			r.latSum[obs.Release] += sec
			if sec > r.latMax[obs.Release] {
				r.latMax[obs.Release] = sec
			}
			hist := r.latHist[obs.Release]
			if hist == nil {
				hist = make([]int, latencyBinCount)
				r.latHist[obs.Release] = hist
			}
			if obs.Latency >= latencyRange {
				r.overflow[obs.Release]++
			} else {
				// The last bin whose lower edge is at or below the latency,
				// by linear scan; bin 0 also holds everything faster.
				idx := 0
				for i, edge := range latencyEdges {
					if edge <= sec {
						idx = i
					}
				}
				hist[idx]++
			}
		}
		if obs.Evident {
			r.evident[obs.Release]++
		}
		if obs.Judged && obs.Failed {
			r.failed[obs.Release]++
		}
	}
	if rec.Joint != 0 {
		r.joint.Add(rec.Joint)
		if rec.Operation != "" {
			c := r.perOp[rec.Operation]
			c.Add(rec.Joint)
			r.perOp[rec.Operation] = c
		}
	}
}

func (r *refMonitor) slowResponses(release string, threshold time.Duration) (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	noResponse := r.demands[release] - r.resp[release]
	// A bin is slow when its lower edge is at or past the threshold; bin
	// 0's lower edge is zero. Over-range responses are slow whenever some
	// bin is, and otherwise when the slowest response was.
	slow, someBinSlow := 0, false
	for i, edge := range latencyEdges {
		if i == 0 {
			edge = 0
		}
		if edge >= threshold.Seconds() {
			someBinSlow = true
			if hist := r.latHist[release]; hist != nil {
				slow += hist[i]
			}
		}
	}
	if someBinSlow || r.latMax[release] > threshold.Seconds() {
		slow += r.overflow[release]
	}
	return noResponse + slow, r.demands[release]
}

// randomRecord draws one randomized demand record. An observation of a
// release that has an entry in ids carries it half the time, so both of
// Note's resolutions (by index, by name) are exercised.
func randomRecord(rng *xrand.Rand, ops, releases []string, ids map[string]ReleaseID) Record {
	rec := Record{Operation: ops[rng.Intn(len(ops))]}
	n := 1 + rng.Intn(len(releases))
	for _, idx := range rng.Perm(len(releases))[:n] {
		responded := rng.Bool(0.9)
		obs := Observation{
			Release:   releases[idx],
			Responded: responded,
			Evident:   !responded || rng.Bool(0.1),
			Judged:    rng.Bool(0.8),
			Failed:    rng.Bool(0.15),
			Latency:   time.Duration(rng.Intn(5000)) * time.Millisecond,
		}
		if rng.Bool(0.5) {
			obs.ID = ids[obs.Release]
		}
		rec.Releases = append(rec.Releases, obs)
	}
	if rng.Bool(0.7) {
		rec.Joint = []bayes.JointOutcome{
			bayes.NeitherFails, bayes.AOnlyFails, bayes.BOnlyFails, bayes.BothFail,
		}[rng.Intn(4)]
	}
	return rec
}

// TestConcurrentNotesEqualReference drives the monitor from several
// goroutines and the sequential model with the same randomized records
// and requires every read API to agree exactly: whatever the
// interleaving, no observation is lost, double-counted or credited to
// another release. A fourth release joins half way through each
// writer's run — interned by name inside Note, while the others are
// being recorded by index.
func TestConcurrentNotesEqualReference(t *testing.T) {
	ops := []string{"add", "sub", "mul"}
	early := []string{"1.0", "1.1", "1.2"}
	releases := append(append([]string(nil), early...), "1.3")

	for trial := 0; trial < 3; trial++ {
		m := New()
		ref := newRefMonitor()
		ids := map[string]ReleaseID{}
		for _, rel := range early {
			ids[rel] = m.Intern(rel)
		}

		const workers = 8
		const perWorker = 300
		master := xrand.New(uint64(1000 + trial))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			rng := master.Split()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					deployed := early
					if i >= perWorker/2 {
						deployed = releases
					}
					rec := randomRecord(rng, ops, deployed, ids)
					m.Note(rec)
					ref.note(rec)
				}
			}()
		}
		wg.Wait()

		if got, want := m.Joint(), ref.joint; got != want {
			t.Fatalf("trial %d: Joint() = %+v, reference %+v", trial, got, want)
		}
		for _, op := range ops {
			if got, want := m.JointFor(op), ref.perOp[op]; got != want {
				t.Fatalf("trial %d: JointFor(%s) = %+v, reference %+v", trial, op, got, want)
			}
		}
		if got := len(m.Releases()); got != len(ref.releases) {
			t.Fatalf("trial %d: Releases() has %d entries, reference %d", trial, got, len(ref.releases))
		}
		for _, rel := range releases {
			s, err := m.Stats(rel)
			if err != nil {
				t.Fatalf("trial %d: Stats(%s): %v", trial, rel, err)
			}
			if s.Demands != ref.demands[rel] || s.Responses != ref.resp[rel] ||
				s.Evident != ref.evident[rel] || s.JudgedFailures != ref.failed[rel] {
				t.Fatalf("trial %d: Stats(%s) = %+v, reference demands=%d resp=%d evident=%d failed=%d",
					trial, rel, s, ref.demands[rel], ref.resp[rel], ref.evident[rel], ref.failed[rel])
			}
			// Mean via a Welford summary vs a plain sum: equal up to float
			// round-off.
			if ref.resp[rel] > 0 {
				wantMean := ref.latSum[rel] / float64(ref.resp[rel])
				gotMean := s.MeanLatency.Seconds()
				// Tolerance covers ns truncation of time.Duration plus
				// float round-off of the arrival order.
				if math.Abs(gotMean-wantMean) > 2e-9*math.Max(1, wantMean) {
					t.Fatalf("trial %d: Stats(%s) mean latency %v, reference %v", trial, rel, gotMean, wantMean)
				}
				if math.Abs(s.MaxLatency.Seconds()-ref.latMax[rel]) > 1e-12 {
					t.Fatalf("trial %d: Stats(%s) max latency %v, reference %v", trial, rel, s.MaxLatency.Seconds(), ref.latMax[rel])
				}
			}
			for _, threshold := range []time.Duration{
				0, 30 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second, time.Minute,
			} {
				slow, demands, err := m.SlowResponses(rel, threshold)
				if err != nil {
					t.Fatalf("trial %d: SlowResponses(%s, %v): %v", trial, rel, threshold, err)
				}
				wantSlow, wantDemands := ref.slowResponses(rel, threshold)
				if slow != wantSlow || demands != wantDemands {
					t.Fatalf("trial %d: SlowResponses(%s, %v) = (%d, %d), reference (%d, %d)",
						trial, rel, threshold, slow, demands, wantSlow, wantDemands)
				}
			}
		}
	}
}

// TestCampaignStateCutConsistent: a snapshot taken while writers run is
// one cut of the record, never a mix of two. Every record here observes
// both releases of the pair and most carry a joint outcome under an
// operation, so in any cut the per-operation records sum to the joint
// record and each pair release has at least as many demands as the joint
// record has observations — in particular a snapshot cannot carry joint
// counts for a release whose counters it lacks, the way one assembled
// piecewise could when the release was interned while it was being
// taken. The monitors start empty and the writers record by name, so
// that interning happens under the reader every trial.
func TestCampaignStateCutConsistent(t *testing.T) {
	pair := []string{"1.0", "1.1"}
	ops := []string{"add", "sub", "mul"}
	for trial := 0; trial < 40; trial++ {
		m := New(WithLogCapacity(16))
		const workers = 4
		const perWorker = 200
		master := xrand.New(uint64(2000 + trial))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			rng := master.Split()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					rec := randomRecord(rng, ops, pair, nil)
					for len(rec.Releases) < len(pair) { // both releases, every demand
						rec = randomRecord(rng, ops, pair, nil)
					}
					if i >= perWorker/2 { // a third release joins mid-run
						rec.Releases = append(rec.Releases, Observation{Release: "1.2", Responded: true})
					}
					m.Note(rec)
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()

		for running := true; running; {
			select {
			case <-done:
				running = false // one last cut, of the final state
			default:
			}
			st := m.CampaignState()
			perOp := 0
			for _, jc := range st.PerOp {
				perOp += jc.N
			}
			if perOp != st.Joint.N {
				t.Fatalf("trial %d: per-operation records sum to %d, joint record holds %d", trial, perOp, st.Joint.N)
			}
			demands := map[string]int{}
			for _, rs := range st.Releases {
				demands[rs.Release] = rs.Demands
			}
			for _, rel := range pair {
				if demands[rel] < st.Joint.N {
					t.Fatalf("trial %d: joint record holds %d observations, release %s only %d demands (snapshot %+v)",
						trial, st.Joint.N, rel, demands[rel], st.Releases)
				}
			}
			if demands[pair[0]] != demands[pair[1]] {
				t.Fatalf("trial %d: pair demands differ within one cut: %v", trial, demands)
			}
		}
		if st := m.CampaignState(); st.Joint.N == 0 || len(st.Releases) != 3 {
			t.Fatalf("trial %d: final state %+v", trial, st)
		}
	}
}

// TestRingEviction: the ring must retain exactly the newest capacity
// records, oldest first, and evict in O(1) (covered by the Note
// benchmark; here we pin the semantics).
func TestRingEviction(t *testing.T) {
	m := New(WithLogCapacity(4))
	for i := 0; i < 11; i++ {
		m.Note(Record{Operation: fmt.Sprintf("op-%d", i)})
	}
	log := m.Log()
	if len(log) != 4 {
		t.Fatalf("log length = %d, want 4", len(log))
	}
	for i, rec := range log {
		if want := fmt.Sprintf("op-%d", 7+i); rec.Operation != want {
			t.Fatalf("log[%d] = %q, want %q", i, rec.Operation, want)
		}
	}
}

// TestRingDisabled: capacity 0 disables the log entirely.
func TestRingDisabled(t *testing.T) {
	m := New(WithLogCapacity(0))
	m.Note(Record{Operation: "x"})
	if log := m.Log(); len(log) != 0 {
		t.Fatalf("disabled log returned %d records", len(log))
	}
}

// TestRingConcurrent: under concurrent writers the ring must stay full
// (exactly capacity records once more than capacity were written), hold
// no duplicates, and order retained records consistently with each
// writer's own sequence.
func TestRingConcurrent(t *testing.T) {
	const capacity = 64
	const workers = 8
	const perWorker = 200
	m := New(WithLogCapacity(capacity))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Note(Record{Operation: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	wg.Wait()
	log := m.Log()
	if len(log) != capacity {
		t.Fatalf("log length = %d, want %d", len(log), capacity)
	}
	seen := map[string]bool{}
	lastPerWorker := map[string]int{}
	for _, rec := range log {
		if seen[rec.Operation] {
			t.Fatalf("duplicate record %q in log", rec.Operation)
		}
		seen[rec.Operation] = true
		var w, i int
		if _, err := fmt.Sscanf(rec.Operation, "w%d-%d", &w, &i); err != nil {
			t.Fatalf("unparsable record %q", rec.Operation)
		}
		// Within one writer, retained records must appear in write order.
		key := fmt.Sprintf("w%d", w)
		if last, ok := lastPerWorker[key]; ok && i < last {
			t.Fatalf("writer %d's records out of order: %d after %d", w, i, last)
		}
		lastPerWorker[key] = i
	}
}
