package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/journal"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/testutil"
)

func campaignTestConfig(phase Phase) Config {
	return Config{
		Releases: []Endpoint{
			{Version: "1.0", URL: "http://127.0.0.1:1/old"},
			{Version: "2.0", URL: "http://127.0.0.1:1/new"},
		},
		InitialPhase: phase,
		Inference:    testInference(),
	}
}

// driveJoint pushes n joint observations into the engine's monitor, the
// way recordOutcome would under live traffic.
func driveJoint(e *Engine, n int) {
	for i := 0; i < n; i++ {
		joint := bayes.NeitherFails
		if i%17 == 0 {
			joint = bayes.BOnlyFails
		}
		e.Monitor().Note(monitor.Record{
			Time:      time.Unix(int64(i), 0),
			Operation: "add",
			Releases: []monitor.Observation{
				{Release: "1.0", Responded: true, Latency: 12 * time.Millisecond},
				{Release: "2.0", Responded: true, Latency: 14 * time.Millisecond},
			},
			Winner: "1.0",
			Joint:  joint,
		})
	}
}

// A restarted engine restored from a snapshot must agree with the
// crashed one on phase, releases, and — decisively — the posterior the
// switch policy reads.
func TestRestoreCampaignResumesPosterior(t *testing.T) {
	before, err := New(campaignTestConfig(PhaseObservation))
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	driveJoint(before, 173)
	snap := before.CampaignSnapshot()
	wantConf, err := before.Confidence("")
	if err != nil {
		t.Fatal(err)
	}

	after, err := New(campaignTestConfig(PhaseOldOnly)) // config phase differs; journal must win
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if err := after.RestoreCampaign(journal.State{Snapshot: &snap, Phase: snap.Phase, Releases: snap.Releases}); err != nil {
		t.Fatalf("RestoreCampaign: %v", err)
	}

	if got := after.Phase(); got != PhaseObservation {
		t.Fatalf("restored phase %v, want observation", got)
	}
	if got, want := after.Monitor().Joint(), before.Monitor().Joint(); got != want {
		t.Fatalf("restored joint %+v, want %+v", got, want)
	}
	gotConf, err := after.Confidence("")
	if err != nil {
		t.Fatal(err)
	}
	if gotConf != wantConf {
		t.Fatalf("restored confidence %+v, want %+v", gotConf, wantConf)
	}
}

// Recovery restores backward positions the transition rules forbid as
// live transitions, and announces itself with CauseRecovery.
func TestRestoreCampaignBypassesTransitionRules(t *testing.T) {
	e, err := New(campaignTestConfig(PhaseParallel))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var mu sync.Mutex
	var seen []lifecycle.Transition
	e.OnTransition(func(tr lifecycle.Transition) {
		mu.Lock()
		seen = append(seen, tr)
		mu.Unlock()
	})
	// Parallel → Observation is a backward step inside a live campaign:
	// illegal as a management transition, mandatory as a recovery.
	if err := e.SetPhase(PhaseObservation); !errors.Is(err, lifecycle.ErrIllegalTransition) {
		t.Fatalf("SetPhase backward: err = %v, want illegal transition", err)
	}
	if err := e.RestoreCampaign(journal.State{Phase: PhaseObservation}); err != nil {
		t.Fatalf("RestoreCampaign: %v", err)
	}
	if got := e.Phase(); got != PhaseObservation {
		t.Fatalf("phase %v after recovery restore", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].Cause != lifecycle.CauseRecovery || seen[0].To != PhaseObservation {
		t.Fatalf("transitions observed: %+v", seen)
	}
}

// An invalid replayed phase must not be restored (a 1-release unit
// cannot resume Observation).
func TestRestoreCampaignValidatesPhase(t *testing.T) {
	cfg := campaignTestConfig(PhaseNewOnly)
	cfg.Releases = cfg.Releases[1:]
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.RestoreCampaign(journal.State{Phase: PhaseObservation}); !errors.Is(err, ErrBadPhase) {
		t.Fatalf("restore of unviable phase: err = %v, want ErrBadPhase", err)
	}
}

// Releases the journal knows but the config lost are re-deployed; the
// phase then validates against the merged set.
func TestRestoreCampaignMergesJournalReleases(t *testing.T) {
	cfg := campaignTestConfig(PhaseNewOnly)
	cfg.Releases = cfg.Releases[:1]
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	jst := journal.State{
		Phase: PhaseObservation,
		Releases: []journal.Release{
			{Version: "1.0", URL: "http://127.0.0.1:1/old"},
			{Version: "2.0", URL: "http://127.0.0.1:1/new"},
		},
	}
	if err := e.RestoreCampaign(jst); err != nil {
		t.Fatalf("RestoreCampaign: %v", err)
	}
	rels := e.Releases()
	if len(rels) != 2 || rels[1].Version != "2.0" {
		t.Fatalf("releases after restore: %+v", rels)
	}
	if e.Phase() != PhaseObservation {
		t.Fatalf("phase %v", e.Phase())
	}
}

func TestOnReleaseChangeObservesTopology(t *testing.T) {
	e, err := New(campaignTestConfig(PhaseParallel))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	type change struct {
		added bool
		ver   string
	}
	var mu sync.Mutex
	var changes []change
	e.OnReleaseChange(func(added bool, ep Endpoint) {
		mu.Lock()
		changes = append(changes, change{added, ep.Version})
		mu.Unlock()
	})
	if err := e.AddRelease(Endpoint{Version: "3.0", URL: "http://127.0.0.1:1/v3"}); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveRelease("1.0"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []change{{true, "3.0"}, {false, "1.0"}}
	if len(changes) != 2 || changes[0] != want[0] || changes[1] != want[1] {
		t.Fatalf("changes %+v, want %+v", changes, want)
	}
}

// A panicking release observer must not wedge the topology change or
// starve later observers.
func TestOnReleaseChangePanicContained(t *testing.T) {
	e, err := New(campaignTestConfig(PhaseParallel))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.OnReleaseChange(func(bool, Endpoint) { panic("observer bug") })
	var mu sync.Mutex
	ran := 0
	e.OnReleaseChange(func(bool, Endpoint) { mu.Lock(); ran++; mu.Unlock() })
	if err := e.AddRelease(Endpoint{Version: "3.0", URL: "http://127.0.0.1:1/v3"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != 1 {
		t.Fatalf("later observer ran %d times, want 1", ran)
	}
}

// A release added to a switched engine restarts the campaign in
// Observation in the same published state: one transition, NewOnly →
// Observation, caused by the topology change, and no published state in
// which the unvetted newcomer is the only target.
func TestAddReleaseRestartsObservation(t *testing.T) {
	e, err := New(campaignTestConfig(PhaseNewOnly))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var trs []lifecycle.Transition
	e.OnTransition(func(tr lifecycle.Transition) { trs = append(trs, tr) })
	// Hooks fire synchronously after each publication; the release hook
	// sees the state that carried the newcomer in.
	var published [][]Endpoint
	e.OnReleaseChange(func(bool, Endpoint) { published = append(published, e.state.Load().targets) })

	if err := e.AddRelease(Endpoint{Version: "3.0", URL: "http://127.0.0.1:1/v3"}); err != nil {
		t.Fatal(err)
	}
	want := lifecycle.Transition{From: PhaseNewOnly, To: PhaseObservation, Cause: lifecycle.CauseTopology}
	if len(trs) != 1 || trs[0] != want {
		t.Fatalf("transitions %+v, want exactly %+v", trs, want)
	}
	if len(published) != 1 {
		t.Fatalf("release hook fired %d times, want 1", len(published))
	}
	if targets := published[0]; len(targets) == 1 && targets[0].Version == "3.0" {
		t.Fatalf("a state was published with the newcomer as sole target: %+v", targets)
	}
	if p, n := e.Phase(), len(e.state.Load().targets); p != PhaseObservation || n != 3 {
		t.Fatalf("after AddRelease: phase %v with %d targets, want observation with 3", p, n)
	}
}

// The full loop: journal attached, campaign advances, process "dies"
// (writer closed), journal reopened, new engine restored — phase and
// posterior must match the last snapshot plus the replayed transitions.
func TestJournalRecoveryEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit.journal")
	w, jst, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if jst.Entries != 0 {
		t.Fatalf("fresh journal: %+v", jst)
	}

	e1, err := New(campaignTestConfig(PhaseOldOnly))
	if err != nil {
		t.Fatal(err)
	}
	e1.AttachJournal(w)
	if err := e1.SetPhase(PhaseObservation); err != nil {
		t.Fatal(err)
	}
	driveJoint(e1, 90)
	snap := e1.CampaignSnapshot()
	w.Append(journal.Entry{Kind: journal.KindSnapshot, Time: 1, Snapshot: &snap})
	// A transition after the last snapshot: the replay must keep the
	// snapshot's posterior and still apply the later transition.
	if err := e1.SetPhase(PhaseParallel); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wantJoint := e1.Monitor().Joint()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	w2, jst2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if jst2.Phase != PhaseParallel {
		t.Fatalf("replayed phase %v, want parallel", jst2.Phase)
	}
	if jst2.TransitionsAfterSnapshot != 1 {
		t.Fatalf("TransitionsAfterSnapshot = %d, want 1", jst2.TransitionsAfterSnapshot)
	}
	e2, err := New(campaignTestConfig(PhaseOldOnly))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.RestoreCampaign(jst2); err != nil {
		t.Fatal(err)
	}
	if e2.Phase() != PhaseParallel {
		t.Fatalf("restored phase %v", e2.Phase())
	}
	if got := e2.Monitor().Joint(); got != wantJoint {
		t.Fatalf("restored joint %+v, want %+v", got, wantJoint)
	}
}

// The snapshot loop must write decodable snapshots on its own.
func TestStartCampaignSnapshots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit.journal")
	w, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(campaignTestConfig(PhaseObservation))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	driveJoint(e, 40)
	stop, err := e.StartCampaignSnapshots(w, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if st, _, err := journal.Decode(data); err == nil && st.Snapshot != nil {
			if st.Snapshot.Campaign.Joint.N != 40 {
				t.Fatalf("snapshot joint %+v", st.Snapshot.Campaign.Joint)
			}
			break
		}
		if time.Now().After(deadline) {
			testutil.FatalWithStacks(t, "no snapshot appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Bad arguments are rejected up front.
	if _, err := e.StartCampaignSnapshots(nil, time.Second); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil writer: err = %v", err)
	}
	w3, _, err := journal.Open(filepath.Join(t.TempDir(), "other.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if _, err := e.StartCampaignSnapshots(w3, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero interval: err = %v", err)
	}
}
