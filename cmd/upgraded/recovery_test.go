package main

// The one real-process crash check: kill -9 the mediator mid-campaign
// and assert the restarted process resumes the exact §4.1 phase and the
// posterior of the last journal snapshot — not the configured campaign
// start — then serves every demand and adds each onto that posterior.
// The mediator runs as a real subprocess (SIGKILL cannot be delivered to
// a goroutine), built from this package's directory.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/journal"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
)

// buildUpgraded compiles this package's binary once per test run.
func buildUpgraded(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "upgraded")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startUpgraded launches the binary and waits for its -addr-file.
func startUpgraded(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return cmd, "http://" + string(data)
		}
		if cmd.ProcessState != nil {
			t.Fatal("upgraded exited before binding")
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("upgraded never wrote its addr-file")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// demoRelease boots one live demo release the subprocess can reach.
func demoRelease(t *testing.T, version string) string {
	t.Helper()
	rel, err := service.New(service.DemoContract(version), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: rel.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return "http://" + ln.Addr().String()
}

func unitPhase(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/fleet/units/svc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unit status = %d: %s", resp.StatusCode, body)
	}
	var st struct {
		Phase string `json:"phase"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	return st.Phase
}

func TestKillDashNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a subprocess")
	}
	bin := buildUpgraded(t)
	oldURL := demoRelease(t, "1.0")
	newURL := demoRelease(t, "1.1")

	dir := t.TempDir()
	jdir := filepath.Join(dir, "journals")
	cfgPath := filepath.Join(dir, "fleet.json")
	cfg := fmt.Sprintf(`{"units": [{"name": "svc", "phase": "observation", "criterion": 0,
		"releases": [{"version": "1.0", "url": %q}, {"version": "1.1", "url": %q}]}]}`,
		oldURL, newURL)
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-fleet", cfgPath, "-journal-dir", jdir, "-snapshot-interval", "50ms"}

	cmd, base := startUpgraded(t, bin, args...)
	drive := func(base string, n int) {
		t.Helper()
		client := &soap.Client{URL: base + "/svc", HTTP: &http.Client{Timeout: 5 * time.Second}}
		for i := 0; i < n; i++ {
			var out service.AddResponse
			if err := client.Call(context.Background(), "add", service.AddRequest{A: i, B: 1}, &out); err != nil {
				t.Fatalf("demand %d: %v", i, err)
			}
		}
	}
	drive(base, 60)

	// Wait until a snapshot has captured the traffic so the kill loses
	// at most one interval's worth of posterior.
	jpath := filepath.Join(jdir, "svc.journal")
	waitSnapshot := func(wantN int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if data, err := os.ReadFile(jpath); err == nil {
				if st, _, derr := journal.Decode(data); derr == nil && st.Snapshot != nil &&
					st.Snapshot.Campaign.Joint.N >= wantN {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no snapshot with N >= %d", wantN)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitSnapshot(60)

	// A management transition the config does not know about: the
	// restarted process can only learn it from the journal.
	req, err := http.NewRequest(http.MethodPost, base+"/fleet/units/svc/phase",
		strings.NewReader(`{"phase":"parallel"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("phase change = %d: %s", resp.StatusCode, body)
	}
	drive(base, 20)

	// kill -9: no drain, no flush barrier, no goodbye.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// What the journal actually holds is the recovery contract: the last
	// snapshot plus every transition journaled after it.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	expected, _, err := journal.Decode(data)
	if err != nil {
		t.Fatalf("post-kill journal replay: %v", err)
	}
	if expected.Phase != lifecycle.PhaseParallel {
		t.Fatalf("journal phase %v, want parallel (transition lost?)", expected.Phase)
	}
	if expected.Snapshot == nil || expected.Snapshot.Campaign.Joint.N < 60 {
		t.Fatalf("journal snapshot %+v", expected.Snapshot)
	}
	wantN := expected.Snapshot.Campaign.Joint.N

	// Restart onto the same journals. The config still says Observation;
	// the journal must win.
	_, base2 := startUpgraded(t, bin, args...)
	if got := unitPhase(t, base2); got != "parallel" {
		t.Fatalf("restarted phase %q, want parallel", got)
	}
	if got := unitDemands(t, base2); got != wantN {
		t.Fatalf("restored demands %d, want the snapshot's %d", got, wantN)
	}

	// The restarted mediator serves every demand, and each one adds onto
	// the restored posterior rather than a fresh campaign's.
	const after = 30
	drive(base2, after)
	deadline := time.Now().Add(5 * time.Second)
	got := unitDemands(t, base2)
	for got < wantN+after && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		got = unitDemands(t, base2)
	}
	if got != wantN+after {
		t.Fatalf("posterior holds %d demands after the restart, want the snapshot's %d plus %d", got, wantN, after)
	}
}

// unitDemands reads the joint demands behind the unit's posterior.
func unitDemands(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/fleet/units/svc/confidence")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("confidence = %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Demands int `json:"Demands"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	return rep.Demands
}

// stopRun cancels a run started by startRun and waits for a clean exit.
func stopRun(t *testing.T, cancel context.CancelFunc, errCh chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run never drained")
	}
}

// Single-unit mode journals to <dir>/unit.journal: a stop through the
// context keeps the whole campaign, and a restart with the same flags
// resumes it instead of starting a fresh one.
func TestSingleUnitJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-release", "1.0=" + demoRelease(t, "1.0"), "-release", "1.1=" + demoRelease(t, "1.1"),
		"-phase", "observation", "-criterion", "0",
		// Far longer than the test: only the shutdown path can persist.
		"-journal-dir", dir, "-snapshot-interval", "1h",
	}
	drive := func(base string, n int) {
		t.Helper()
		client := &soap.Client{URL: base + "/", HTTP: &http.Client{Timeout: 5 * time.Second}}
		for i := 0; i < n; i++ {
			var out service.AddResponse
			if err := client.Call(context.Background(), "add", service.AddRequest{A: i, B: 1}, &out); err != nil {
				t.Fatalf("demand %d: %v", i, err)
			}
		}
	}
	const n = 20
	base, cancel, errCh := startRun(t, args)
	drive(base, n)
	stopRun(t, cancel, errCh)

	base, cancel, errCh = startRun(t, args)
	drive(base, 1)
	stopRun(t, cancel, errCh)

	data, err := os.ReadFile(filepath.Join(dir, "unit.journal"))
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := journal.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || st.Snapshot.Campaign.Joint.N < n+1 {
		t.Fatalf("journal snapshot %+v, want joint N >= %d (a fresh campaign would hold 1)", st.Snapshot, n+1)
	}
}

// A corrupt unit.journal is quarantined, never fatal, and the note says
// so in the log.
func TestSingleUnitCorruptJournalQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "unit.journal")
	if err := os.WriteFile(path, []byte("WSUJRNL1 this is not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	_, cancel, errCh := startRun(t, []string{
		"-release", "1.0=http://127.0.0.1:1", "-phase", "old-only", "-criterion", "0",
		"-journal-dir", dir,
	})
	stopRun(t, cancel, errCh)

	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined file: %v", err)
	}
	if !strings.Contains(logged.String(), "journal quarantined") {
		t.Fatalf("log holds no quarantine note:\n%s", logged.String())
	}
}
