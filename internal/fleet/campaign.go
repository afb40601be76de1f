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
	"log"
	"os"
	"path/filepath"
	"time"

	"wsupgrade/internal/core"
	"wsupgrade/internal/journal"
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
	if dir != "" {
		if interval <= 0 {
			interval = DefaultSnapshotInterval
		}
		for _, u := range f.units {
			if err := f.openJournal(u, filepath.Join(dir, u.name+".journal"), interval); err != nil {
				return fmt.Errorf("fleet: unit %q: %w", u.name, err)
			}
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

// openJournal makes one unit's campaign durable in the journal at path:
// it opens the journal (renaming one that fails replay aside, see
// journal.OpenOrQuarantine), restores the replayed campaign, subscribes
// the writer to the engine's lifecycle, compacts the replayed history
// into one snapshot so the journal stays bounded across restarts, and
// starts the snapshot loop. Only I/O failures are fatal: a journal that
// is quarantined, or replays but does not fit the configured unit,
// degrades to a fresh campaign and leaves a note in the log and for
// every /fleet/events subscriber. Fleet.Close takes a final snapshot.
func (f *Fleet) openJournal(u *Unit, path string, interval time.Duration) error {
	note := func(msg string) {
		log.Printf("fleet: unit %q: %s", u.name, msg)
		f.journalNotes = append(f.journalNotes, journalEvent{Unit: u.name, Note: msg})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("journal dir: %w", err)
	}
	w, jst, err := journal.OpenOrQuarantine(path)
	if err != nil {
		if w == nil {
			return fmt.Errorf("opening journal: %w", err)
		}
		note("journal quarantined, campaign starts fresh: " + err.Error())
	}
	e := u.engine
	if err := e.RestoreCampaign(jst); err != nil {
		note("journal restore failed, campaign starts fresh: " + err.Error())
	}
	e.AttachJournal(w)
	snapshot := func() journal.Entry {
		snap := e.CampaignSnapshot()
		return journal.Entry{Kind: journal.KindSnapshot, Time: time.Now().UnixNano(), Snapshot: &snap}
	}
	if err := w.Compact(snapshot()); err != nil {
		_ = w.Close()
		return fmt.Errorf("compacting journal: %w", err)
	}
	stop, err := e.StartCampaignSnapshots(w, interval)
	if err != nil {
		_ = w.Close()
		return err
	}
	f.closeJournals = append(f.closeJournals, func() error {
		stop()
		w.Append(snapshot())
		return w.Close()
	})
	return nil
}
