package fleet

// Durable campaigns and the push control plane.
//
// With Config.JournalDir set, every unit journals its campaign — phase
// transitions with causes, release-set changes, periodic posterior
// snapshots — to <dir>/<unit>.journal, and a restarted fleet resumes
// each unit mid-campaign from the replayed journal. Corruption is never
// fatal: a journal that fails replay is quarantined aside and the unit
// starts a fresh one (see journal.OpenOrQuarantine).
//
// Independent of journaling, every fleet publishes campaign events to
// an in-process hub; /fleet/events streams them as Server-Sent Events
// (token-guarded like the rest of the admin surface). Subscribers have
// bounded buffers and lose events rather than slowing the campaign; the
// stream reports its own gaps.

import (
	"fmt"
	"path/filepath"
	"time"

	"wsupgrade/internal/core"
	"wsupgrade/internal/events"
	"wsupgrade/internal/lifecycle"
)

// DefaultSnapshotInterval is the journal snapshot cadence when
// Config.JournalDir is set without a Config.SnapshotInterval.
const DefaultSnapshotInterval = 5 * time.Second

// phaseEvent is the SSE payload for one unit's phase transition.
type phaseEvent struct {
	Unit    string `json:"unit"`
	From    string `json:"from"`
	To      string `json:"to"`
	Cause   string `json:"cause"`
	Demands int    `json:"demands,omitempty"`
}

// releaseEvent is the SSE payload for one unit's release-set change.
type releaseEvent struct {
	Unit    string `json:"unit"`
	Action  string `json:"action"` // "added" or "removed"
	Version string `json:"version"`
	URL     string `json:"url,omitempty"`
}

// confidenceEvent is the SSE payload for one unit's posterior readout,
// published at each phase transition.
type confidenceEvent struct {
	Unit      string  `json:"unit"`
	Published float64 `json:"published"`
	Old       float64 `json:"old"`
	New       float64 `json:"new"`
	Demands   int     `json:"demands"`
}

// journalEvent is the SSE payload for journal lifecycle notes
// (quarantines, restore failures) surfaced to subscribers.
type journalEvent struct {
	Unit string `json:"unit"`
	Note string `json:"note"`
}

// setupCampaigns wires journaling (when dir != "") and event publishing
// for every unit. Called once from New, after the unit set is built.
func (f *Fleet) setupCampaigns(dir string, interval time.Duration) error {
	f.hub = events.NewHub()
	if dir != "" {
		if interval <= 0 {
			interval = DefaultSnapshotInterval
		}
		for _, u := range f.units {
			closeJournal, err := u.engine.OpenJournal(filepath.Join(dir, u.name+".journal"), interval,
				func(note string) {
					f.journalNotes = append(f.journalNotes, journalEvent{Unit: u.name, Note: note})
				})
			if err != nil {
				return fmt.Errorf("fleet: unit %q: %w", u.name, err)
			}
			f.closeJournals = append(f.closeJournals, closeJournal)
		}
	}

	// Event publishing rides the same capture points as the journal:
	// phase transitions (with a posterior readout) and release changes.
	f.OnTransition(func(tr lifecycle.Transition) {
		f.hub.Publish("phase", phaseEvent{
			Unit:    tr.Unit,
			From:    tr.From.String(),
			To:      tr.To.String(),
			Cause:   tr.Cause.String(),
			Demands: tr.Demands,
		})
		if u := f.byName[tr.Unit]; u != nil {
			if rep, err := u.engine.Confidence(""); err == nil {
				f.hub.Publish("confidence", confidenceEvent{
					Unit:      tr.Unit,
					Published: rep.Published,
					Old:       rep.Old,
					New:       rep.New,
					Demands:   rep.Demands,
				})
			}
		}
	})
	for _, u := range f.units {
		u := u
		u.engine.OnReleaseChange(func(added bool, ep core.Endpoint) {
			action := "added"
			if !added {
				action = "removed"
			}
			f.hub.Publish("release", releaseEvent{
				Unit: u.name, Action: action, Version: ep.Version, URL: ep.URL,
			})
		})
	}
	return nil
}

// closeCampaigns stops the snapshot loops and journal writers (flushing
// their queues) and disconnects every event subscriber.
func (f *Fleet) closeCampaigns() {
	for _, closeJournal := range f.closeJournals {
		_ = closeJournal()
	}
	f.closeJournals = nil
	f.hub.Close()
}
