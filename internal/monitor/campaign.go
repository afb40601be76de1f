package monitor

import (
	"fmt"
	"maps"
	"sort"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/stats"
)

// ErrBadCampaignState reports a campaign-state snapshot the monitor
// refuses to restore (the journal it came from may be corrupt).
var ErrBadCampaignState = fmt.Errorf("monitor: bad campaign state")

// ReleaseCampaignStats is one release's aggregate counters in exported,
// serializable form — the per-release slice of a CampaignState.
type ReleaseCampaignStats struct {
	Release        string             `json:"release"`
	Demands        int                `json:"demands"`
	Responses      int                `json:"responses"`
	Evident        int                `json:"evident"`
	JudgedFailures int                `json:"judged_failures"`
	Overflow       int                `json:"overflow"`
	Latency        stats.SummaryState `json:"latency"`
	// LatencyBins maps each non-empty latency-histogram bin to its count.
	// A snapshot without it restores the other counters, and its
	// responses under the histogram range then count as fast.
	LatencyBins map[int]int `json:"latency_bins,omitempty"`
}

// CampaignState is the serializable aggregation state of a campaign:
// everything the Bayesian confidence engine and the status surfaces need
// to resume after a mediator restart. It deliberately excludes the
// event-log ring (diagnostic, bounded, rebuilt from live traffic).
type CampaignState struct {
	Joint    bayes.JointCounts            `json:"joint"`
	PerOp    map[string]bayes.JointCounts `json:"per_op,omitempty"`
	Releases []ReleaseCampaignStats       `json:"releases,omitempty"`
}

// CampaignState snapshots the monitor's aggregation state under the
// record's one lock, so it is a consistent cut: a concurrent Note is in
// it with its joint outcome and every per-release count, or not at all.
func (m *Monitor) CampaignState() CampaignState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := CampaignState{Joint: m.joint}
	if len(m.perOp) > 0 {
		st.PerOp = maps.Clone(m.perOp)
	}
	for idx, agg := range m.aggs {
		if agg == nil {
			continue
		}
		bins := make(map[int]int)
		for bin, n := range agg.bins {
			if n > 0 {
				bins[bin] = n
			}
		}
		st.Releases = append(st.Releases, ReleaseCampaignStats{
			Release:        m.names[idx],
			Demands:        agg.demands,
			Responses:      agg.responses,
			Evident:        agg.evident,
			JudgedFailures: agg.judgedFailed,
			Overflow:       agg.overflow,
			Latency:        agg.latency.State(),
			LatencyBins:    bins,
		})
	}
	// Deterministic order so identical states serialize identically.
	sort.Slice(st.Releases, func(i, j int) bool {
		return st.Releases[i].Release < st.Releases[j].Release
	})
	return st
}

// Restore merges a previously snapshotted campaign state into the
// monitor, seeding the joint record, the per-operation records, and the
// per-release counters so that Joint/JointFor/Stats report the restored
// history plus anything observed since, SlowResponses included. Latency
// summaries are restored exactly (mean/variance/extrema). The snapshot is
// validated before any state is touched: a corrupt snapshot leaves the
// monitor unchanged.
func (m *Monitor) Restore(st CampaignState) error {
	if err := validateCampaignState(st); err != nil {
		return err
	}
	restored := make([]stats.Summary, len(st.Releases))
	for i, rs := range st.Releases {
		sum, err := stats.RestoreSummary(rs.Latency)
		if err != nil {
			return fmt.Errorf("%w: release %q: %v", ErrBadCampaignState, rs.Release, err)
		}
		restored[i] = sum
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, rs := range st.Releases {
		agg := m.agg(m.intern(rs.Release))
		agg.demands += rs.Demands
		agg.responses += rs.Responses
		agg.evident += rs.Evident
		agg.judgedFailed += rs.JudgedFailures
		agg.overflow += rs.Overflow
		agg.latency.Merge(restored[i])
		for bin, n := range rs.LatencyBins {
			agg.bins[bin] += n
		}
	}
	m.joint.Merge(st.Joint)
	for op, jc := range st.PerOp {
		total := m.perOp[op]
		total.Merge(jc)
		m.perOp[op] = total
	}
	return nil
}

// validateCampaignState rejects snapshots whose counters cannot have
// come from a real campaign.
func validateCampaignState(st CampaignState) error {
	check := func(name string, jc bayes.JointCounts) error {
		if jc.N < 0 || jc.Both < 0 || jc.AOnly < 0 || jc.BOnly < 0 ||
			jc.Both+jc.AOnly+jc.BOnly > jc.N {
			return fmt.Errorf("%w: %s joint counts %+v", ErrBadCampaignState, name, jc)
		}
		return nil
	}
	if err := check("total", st.Joint); err != nil {
		return err
	}
	for op, jc := range st.PerOp {
		if err := check("operation "+op, jc); err != nil {
			return err
		}
	}
	for _, rs := range st.Releases {
		if rs.Release == "" {
			return fmt.Errorf("%w: release with empty name", ErrBadCampaignState)
		}
		binned := rs.Overflow
		for bin, n := range rs.LatencyBins {
			if bin < 0 || bin >= latencyBinCount || n < 0 {
				return fmt.Errorf("%w: release %q latency bin %d count %d", ErrBadCampaignState, rs.Release, bin, n)
			}
			binned += n
		}
		if rs.Demands < 0 || rs.Responses < 0 || rs.Evident < 0 ||
			rs.JudgedFailures < 0 || rs.Overflow < 0 || binned > rs.Responses ||
			rs.Responses > rs.Demands || rs.Latency.N != rs.Responses {
			return fmt.Errorf("%w: release %q counters %+v", ErrBadCampaignState, rs.Release, rs)
		}
	}
	return nil
}
