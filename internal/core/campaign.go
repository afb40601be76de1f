package core

import (
	"context"
	"fmt"
	"time"

	"wsupgrade/internal/journal"
	"wsupgrade/internal/lifecycle"
)

// releaseChange is one release joining (added) or leaving the deployed
// set: the event of the engine's release-set hooks, the topology
// counterpart of lifecycle.Transition.
type releaseChange struct {
	added bool
	ep    Endpoint
}

// OnReleaseChange registers an observer of release-set changes: fn is
// called with added=true for each release that joined the deployed set
// and added=false for each that left it. Like transition hooks,
// observers fire after the new state is published, must not block, and
// must not call the engine's own mutators.
func (e *Engine) OnReleaseChange(fn func(added bool, ep Endpoint)) {
	if fn == nil {
		return
	}
	e.relHooks.Add(func(c releaseChange) { fn(c.added, c.ep) })
}

// fireReleaseChanges diffs two published release sets and notifies the
// release observers. Runs outside the write lock, on the management
// path only (release sets change via AddRelease/RemoveRelease/restore,
// never per-request).
func (e *Engine) fireReleaseChanges(prev, next []Endpoint) {
	if e.relHooks.Empty() {
		return
	}
	for _, p := range prev {
		if indexOf(next, p.Version) < 0 {
			e.relHooks.Fire(releaseChange{false, p})
		}
	}
	for _, n := range next {
		if indexOf(prev, n.Version) < 0 {
			e.relHooks.Fire(releaseChange{true, n})
		}
	}
}

// ---------------------------------------------------------------------------
// Durable campaigns: journal capture and recovery

// CampaignSnapshot captures the engine's resumable campaign state: the
// published phase/mode/quorum/release set plus the monitor's
// aggregation state. It is what the periodic journal snapshot records.
func (e *Engine) CampaignSnapshot() journal.Snapshot {
	st := e.state.Load()
	rels := make([]journal.Release, len(st.releases))
	for i, r := range st.releases {
		rels[i] = journal.Release{Version: r.Version, URL: r.URL}
	}
	return journal.Snapshot{
		Phase:      st.phase,
		Mode:       int(st.mode),
		Quorum:     st.quorum,
		SwitchedAt: st.switchedAt,
		Releases:   rels,
		Campaign:   e.mon.CampaignState(),
	}
}

// RestoreCampaign resumes a replayed campaign: the monitor is seeded
// with the last snapshot's aggregation state, releases the journal
// knows but the configuration lost are re-deployed (recovery is
// conservative: it adds, it never removes a configured release), and
// the phase, mode, and quorum are force-published with
// lifecycle.CauseRecovery. The phase restore deliberately bypasses the
// transition rules — a restart resumes a position, it does not perform
// a §4.1 transition — but still validates the phase against the
// deployed release count. Call it after New and before attaching the
// journal writer, so the restore itself is not re-journaled as fresh
// transitions.
func (e *Engine) RestoreCampaign(jst journal.State) error {
	if jst.Snapshot == nil && jst.Phase == 0 && len(jst.Releases) == 0 {
		return nil // fresh journal: nothing to resume
	}
	if jst.Snapshot != nil {
		if err := e.mon.Restore(jst.Snapshot.Campaign); err != nil {
			return fmt.Errorf("core: restoring campaign monitor state: %w", err)
		}
	}
	return e.updateState(lifecycle.CauseRecovery, func(s *engineState) error {
		for _, r := range jst.Releases {
			if r.URL != "" && indexOf(s.releases, r.Version) < 0 {
				s.releases = append(s.releases, Endpoint{Version: r.Version, URL: r.URL})
			}
		}
		if snap := jst.Snapshot; snap != nil {
			if q, err := checkMode(Mode(snap.Mode), snap.Quorum, len(s.releases)); err == nil {
				s.mode, s.quorum = Mode(snap.Mode), q
			}
			if snap.SwitchedAt > 0 {
				s.switchedAt = snap.SwitchedAt
			}
		}
		if jst.Phase != 0 {
			if err := lifecycle.Validate(jst.Phase, len(s.releases)); err != nil {
				return err
			}
			s.phase = jst.Phase
		}
		return nil
	})
}

// AttachJournal subscribes a journal writer to the engine's lifecycle:
// every phase transition and release-set change is appended (with their
// causes) as it happens. Appends are asynchronous and never block the
// observers' callers; the journal stays entirely off the dispatch hot
// path, which touches neither hook.
func (e *Engine) AttachJournal(w *journal.Writer) {
	if w == nil {
		return
	}
	e.OnTransition(func(t lifecycle.Transition) {
		w.Append(journal.Entry{Kind: journal.KindTransition, Time: time.Now().UnixNano(), Transition: &t})
	})
	e.OnReleaseChange(func(added bool, ep Endpoint) {
		kind := journal.KindReleaseAdd
		if !added {
			kind = journal.KindReleaseRemove
		}
		w.Append(journal.Entry{
			Kind:    kind,
			Time:    time.Now().UnixNano(),
			Release: &journal.Release{Version: ep.Version, URL: ep.URL},
		})
	})
}

// StartCampaignSnapshots appends a CampaignSnapshot to the journal
// every interval, bounding how much posterior a crash can lose to one
// interval's worth of demands. The returned stop function blocks until
// the snapshot goroutine has exited (it does not close the writer).
func (e *Engine) StartCampaignSnapshots(w *journal.Writer, interval time.Duration) (stop func(), err error) {
	if w == nil {
		return nil, fmt.Errorf("%w: snapshots need a journal writer", ErrBadConfig)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("%w: snapshot interval %v", ErrBadConfig, interval)
	}
	return lifecycle.Every(interval, func(context.Context) {
		snap := e.CampaignSnapshot()
		w.Append(journal.Entry{Kind: journal.KindSnapshot, Time: time.Now().UnixNano(), Snapshot: &snap})
	}), nil
}
