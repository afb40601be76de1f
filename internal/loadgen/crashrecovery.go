package loadgen

// crash-recovery: the mediator itself is the crash victim. The other
// scenarios kill releases and require the mediator to shield consumers;
// here the mediator process takes a SIGKILL mid-Observation under load
// — no drain, no flush barrier — and the claim is the durable-campaign
// contract: the restarted process resumes the exact §4.1 phase and the
// posterior of its last journal snapshot, consumers see only transport
// errors during the outage window, and service is clean again after the
// restart. The mediator runs as a real subprocess (built from
// ./cmd/upgraded) because SIGKILL cannot be delivered to a goroutine.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"wsupgrade/internal/journal"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/service"
)

// buildMediator compiles cmd/upgraded into dir. It names the command by
// import path, so it needs the Go toolchain and a working directory
// anywhere inside the module — both true wherever the scenarios
// themselves run from source.
func buildMediator(dir string) (string, error) {
	bin := filepath.Join(dir, "upgraded")
	cmd := exec.Command("go", "build", "-o", bin, "wsupgrade/cmd/upgraded")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mediator: %v\n%s", err, out)
	}
	return bin, nil
}

// mediatorProc is one running mediator subprocess.
type mediatorProc struct {
	cmd  *exec.Cmd
	base string
}

// startMediator launches the binary and waits for its -addr-file.
func startMediator(ctx context.Context, bin string, logw io.Writer, args ...string) (*mediatorProc, error) {
	addrDir, err := os.MkdirTemp("", "wsupgrade-addr-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(addrDir)
	addrFile := filepath.Join(addrDir, "addr")
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	if logw == nil {
		logw = io.Discard
	}
	cmd.Stdout = logw
	cmd.Stderr = logw
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return &mediatorProc{cmd: cmd, base: "http://" + string(data)}, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("mediator never wrote its addr-file")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill delivers SIGKILL and reaps the process.
func (m *mediatorProc) kill() {
	_ = m.cmd.Process.Kill()
	_ = m.cmd.Wait()
}

func crashRecovery(ctx context.Context, opts ScenarioOptions) (ScenarioResult, error) {
	var res ScenarioResult
	const oldV, newV = "1.0", "1.1"

	workDir, err := os.MkdirTemp("", "wsupgrade-crashrec-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(workDir)
	bin, err := buildMediator(workDir)
	if err != nil {
		return res, err
	}

	// Two live demo releases, outliving the mediator's death.
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	endpoints := make(map[string]string, 2)
	for _, version := range []string{oldV, newV} {
		release, err := service.New(service.DemoContract(version), service.DemoBehaviours(), service.FaultPlan{})
		if err != nil {
			return res, err
		}
		srv := &releaseServer{handler: release.Handler()}
		if err := srv.start(); err != nil {
			return res, err
		}
		closers = append(closers, srv.stop)
		endpoints[version] = srv.url()
	}

	jdir := filepath.Join(workDir, "journals")
	cfgPath := filepath.Join(workDir, "fleet.json")
	cfg := fmt.Sprintf(`{"units": [{"name": "svc", "phase": "observation", "criterion": 0,
		"releases": [{"version": %q, "url": %q}, {"version": %q, "url": %q}]}]}`,
		oldV, endpoints[oldV], newV, endpoints[newV])
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		return res, err
	}
	args := []string{"-fleet", cfgPath, "-journal-dir", jdir, "-snapshot-interval", "50ms"}

	med, err := startMediator(ctx, bin, opts.Log, args...)
	if err != nil {
		return res, err
	}
	killed := false
	defer func() {
		if !killed {
			med.kill()
		}
	}()

	batch := opts.Requests / 3
	if batch < 30 {
		batch = 30
	}
	run := func(base, stage string) (Report, error) {
		opts.logf("crash-recovery: %s — %d demands", stage, batch)
		return Run(ctx, Options{
			URLs:        []string{base + "/svc/"},
			Concurrency: opts.Concurrency,
			Requests:    batch,
			Seed:        opts.Seed,
		})
	}

	before, err := run(med.base, "baseline (observation, journaled)")
	if err != nil {
		return res, err
	}

	// Let a snapshot capture the traffic, so the SIGKILL loses at most
	// one interval's worth of posterior.
	jpath := filepath.Join(jdir, "svc.journal")
	snapDeadline := time.Now().Add(10 * time.Second)
	for {
		data, rerr := os.ReadFile(jpath)
		if rerr == nil {
			if st, _, derr := journal.Decode(data); derr == nil && st.Snapshot != nil &&
				st.Snapshot.Campaign.Joint.N >= batch/2 {
				break
			}
		}
		if time.Now().After(snapDeadline) {
			return res, fmt.Errorf("no journal snapshot captured the baseline traffic")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// kill -9, mid-Observation, listener still advertised.
	opts.logf("crash-recovery: SIGKILL %d", med.cmd.Process.Pid)
	med.kill()
	killed = true
	during, err := run(med.base, "outage window")
	if err != nil {
		return res, err
	}

	// The journal on disk after an unclean death is the recovery
	// contract: last snapshot plus transitions journaled after it.
	data, err := os.ReadFile(jpath)
	if err != nil {
		return res, err
	}
	expected, _, err := journal.Decode(data)
	if err != nil {
		return res, fmt.Errorf("post-kill journal replay: %w", err)
	}

	med2, err := startMediator(ctx, bin, opts.Log, args...)
	if err != nil {
		return res, err
	}
	defer med2.kill()
	after, err := run(med2.base, "restarted mediator")
	if err != nil {
		return res, err
	}
	eng, err := resumedCampaign(med2.base)
	if err != nil {
		return res, err
	}

	res.Batches = []Report{before, during, after}
	res.check(before.Verdicts[VerdictOK] == before.Requests,
		"baseline verdicts %v", before.Verdicts)
	res.check(during.Verdicts[VerdictTransport] == during.Requests,
		"outage verdicts %v: consumers must see only transport errors while the mediator is down", during.Verdicts)
	res.check(during.Verdicts[VerdictWrong] == 0,
		"%d wrong responses during the outage window", during.Verdicts[VerdictWrong])
	res.check(after.Verdicts[VerdictOK] == after.Requests,
		"post-restart verdicts %v: service did not recover cleanly", after.Verdicts)

	res.check(expected.Phase == lifecycle.PhaseObservation,
		"journal replayed phase %v, want observation", expected.Phase)
	res.check(expected.Snapshot != nil && expected.Snapshot.Campaign.Joint.N > 0,
		"journal holds no posterior snapshot")
	res.check(eng.Phase == lifecycle.PhaseObservation.String(),
		"restarted mediator resumed phase %q, want observation", eng.Phase)
	if expected.Snapshot != nil {
		// The restarted posterior is the snapshot plus the post-restart
		// batch. A mediator that silently started a fresh campaign would
		// hold only the post-restart batch — strictly less than this.
		wantMin := expected.Snapshot.Campaign.Joint.N + batch/2
		res.check(eng.Demands >= wantMin,
			"restarted posterior has %d joint demands, want >= snapshot+batch/2 = %d", eng.Demands, wantMin)
	}
	return res, nil
}

// resumedCampaign reads the restarted mediator's phase and posterior
// size from the fleet admin API.
func resumedCampaign(base string) (struct {
	Phase   string
	Demands int
}, error) {
	var out struct {
		Phase   string
		Demands int
	}
	var st struct {
		Phase string `json:"phase"`
	}
	if err := getJSONInto(base+"/fleet/units/svc", &st); err != nil {
		return out, err
	}
	var rep struct {
		Demands int `json:"Demands"`
	}
	if err := getJSONInto(base+"/fleet/units/svc/confidence", &rep); err != nil {
		return out, err
	}
	out.Phase = st.Phase
	out.Demands = rep.Demands
	return out, nil
}

// getJSONInto fetches a JSON admin resource.
func getJSONInto(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}
