package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestReleaseFlagParsing(t *testing.T) {
	var r releaseFlags
	if err := r.Set("1.0=http://localhost:8081"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("1.1=http://localhost:8082"); err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 || r[0].Version != "1.0" || r[1].URL != "http://localhost:8082" {
		t.Fatalf("parsed = %+v", r)
	}
	if r.String() == "" {
		t.Fatal("String() empty")
	}
	for _, bad := range []string{"", "1.0", "=http://x", "1.0="} {
		var rf releaseFlags
		if err := rf.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	cases := map[string][]string{
		"no releases":   {},
		"bad phase":     {"-release", "1.0=http://x", "-phase", "sideways"},
		"bad mode":      {"-release", "1.0=http://x", "-mode", "warp"},
		"bad criterion": {"-release", "1.0=http://x", "-criterion", "9"},
		"bad oracle":    {"-release", "1.0=http://x", "-oracle", "crystal-ball"},
		"bad flag":      {"-bogus"},
		"missing fleet": {"-fleet", "/nonexistent/fleet.json"},
	}
	for name, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("%s: accepted", name)
		} else if strings.Contains(err.Error(), "listen") {
			t.Errorf("%s: reached ListenAndServe: %v", name, err)
		}
	}
}

func TestFleetConfigRejected(t *testing.T) {
	dir := t.TempDir()
	const rels = `"releases": [{"version":"1.0","url":"http://x"}, {"version":"1.1","url":"http://y"}]`
	// want, when set, must appear in the error: an unknown key is named.
	cases := map[string]struct{ content, want string }{
		"not json":      {content: `釣り`},
		"no units":      {content: `{"units": []}`},
		"bad unit":      {content: `{"units": [{"name": "a", "releases": []}]}`},
		"bad phase":     {content: `{"units": [{"name": "a", "phase": "sideways", "releases": [{"version":"1.0","url":"http://x"}]}]}`},
		"reserved name": {content: `{"units": [{"name": "fleet", ` + rels + `}]}`},
		"misspelt key":  {content: `{"units": [{"name": "a", "timeoutMillis": 50, ` + rels + `}]}`, want: `"timeoutMillis"`},
		"removed key":   {content: `{"units": [{"name": "a", "useNetHTTP": true, ` + rels + `}]}`, want: `"useNetHTTP"`},
		"unknown top":   {content: `{"admintoken2": "x", "units": [{"name": "a", ` + rels + `}]}`, want: `"admintoken2"`},
		"trailing data": {content: `{"units": [{"name": "a", ` + rels + `}]} {}`, want: "trailing data"},
	}
	i := 0
	for name, c := range cases {
		path := filepath.Join(dir, fmt.Sprintf("fleet-%d.json", i))
		i++
		if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
			t.Fatal(err)
		}
		// An accepted config would serve until cancelled: bound it, so a
		// validation hole fails this test instead of hanging it.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-fleet", path})
		cancel()
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %s", name, err, c.want)
		}
	}
}

// startRun boots run() on an ephemeral port and returns the base URL
// and a shutdown trigger.
func startRun(t *testing.T, args []string) (string, context.CancelFunc, chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, args...))
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), cancel, errCh
	case err := <-errCh:
		cancel()
		t.Fatalf("run exited before listening: %v", err)
		return "", nil, nil
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("run never bound its listener")
		return "", nil, nil
	}
}

// SIGINT/SIGTERM cancel main's context; run must drain via
// http.Server.Shutdown and close the engine, returning nil.
func TestGracefulShutdownSingleUnit(t *testing.T) {
	base, cancel, errCh := startRun(t, []string{
		"-release", "1.0=http://127.0.0.1:1",
		"-phase", "old-only", "-criterion", "0",
	})
	// The server is live.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	// Trigger shutdown; run returns cleanly.
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run never drained")
	}
	// The listener really is gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

func TestFleetModeServesUnitsAndAdmin(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	cfg := `{"units": [
		{"name": "flights", "criterion": 0,
		 "releases": [{"version": "1.0", "url": "http://127.0.0.1:1"},
		              {"version": "1.1", "url": "http://127.0.0.1:1"}]},
		{"name": "hotels", "phase": "old-only", "criterion": 3,
		 "releases": [{"version": "2.0", "url": "http://127.0.0.1:1"},
		              {"version": "2.1", "url": "http://127.0.0.1:1"}]}
	]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cancel, errCh := startRun(t, []string{"-fleet", path})
	defer cancel()

	resp, err := http.Get(base + "/fleet/units")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin units = %d: %s", resp.StatusCode, body)
	}
	var units []struct {
		Unit  string `json:"unit"`
		Phase string `json:"phase"`
	}
	if err := json.Unmarshal(body, &units); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if len(units) != 2 || units[0].Unit != "flights" || units[1].Phase != "old-only" {
		t.Fatalf("units = %+v", units)
	}
	// Per-unit surface is routed.
	resp, err = http.Get(base + "/flights/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/flights/healthz = %d", resp.StatusCode)
	}

	// Fleet shutdown drains cleanly too.
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("fleet shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("fleet run never drained")
	}
}

// A fleet started with an admin token serves the process's profiles
// behind it, and passes everything else to the fleet, whose admin API
// keeps its own guard; without a token there are no profiles. The
// binary forms are gzipped protobuf, what go tool pprof reads.
func TestFleetModeServesProfilesOnlyWithToken(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	cfg := `{"units": [{"name": "flights", "criterion": 0,
		"releases": [{"version": "1.0", "url": "http://127.0.0.1:1"},
		             {"version": "1.1", "url": "http://127.0.0.1:1"}]}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	get := func(base, path, token string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	const gzipMagic = "\x1f\x8b"

	stop := func(cancel context.CancelFunc, errCh chan error) {
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

	guarded, cancel, errCh := startRun(t, []string{"-fleet", path, "-admin-token", "s3cret"})
	defer cancel()
	for _, c := range []struct{ path, prefix, contains string }{
		{"/fleet/debug/pprof/", "", "goroutine?debug=1"},
		{"/fleet/debug/pprof/heap?debug=1", "", "# runtime.MemStats"},
		{"/fleet/debug/pprof/heap", gzipMagic, ""},
		{"/fleet/debug/pprof/profile?seconds=1", gzipMagic, ""},
		{"/fleet/units", "", `"flights"`},
	} {
		if code, _ := get(guarded, c.path, ""); code != http.StatusUnauthorized {
			t.Fatalf("%s without the token = %d, want 401", c.path, code)
		}
		code, body := get(guarded, c.path, "s3cret")
		if code != http.StatusOK || !strings.HasPrefix(body, c.prefix) || !strings.Contains(body, c.contains) {
			t.Fatalf("%s with the token = %d, body lacks %q…%q:\n%.300q", c.path, code, c.prefix, c.contains, body)
		}
	}
	if code, _ := get(guarded, "/fleet/debug/pprof/nosuch", "s3cret"); code != http.StatusNotFound {
		t.Fatalf("an unknown profile = %d, want 404", code)
	}

	stop(cancel, errCh)

	open, cancel, errCh := startRun(t, []string{"-fleet", path})
	defer cancel()
	for _, p := range []string{"/fleet/debug/pprof/", "/fleet/debug/pprof/heap?debug=1", "/fleet/debug/pprof/profile?seconds=1"} {
		if code, _ := get(open, p, ""); code != http.StatusNotFound {
			t.Fatalf("%s on a fleet without a token = %d, want 404", p, code)
		}
	}
	stop(cancel, errCh)
}

// TestJSONUnitOverDemoReleases: single-unit upgraded with -protocol json
// fronts demo releases, whose REST/JSON face answers a JSON demand, and
// returns the adjudicated reply with the winner and the published
// confidence.
func TestJSONUnitOverDemoReleases(t *testing.T) {
	base, cancel, errCh := startRun(t, []string{
		"-protocol", "json", "-phase", "parallel", "-criterion", "0",
		"-release", "1.0=" + demoRelease(t, "1.0"),
		"-release", "1.1=" + demoRelease(t, "1.1"),
	})
	defer func() {
		cancel()
		if err := <-errCh; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	resp, err := http.Post(base+"/add", "application/json", strings.NewReader(`{"a":19,"b":23}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Sum int `json:"sum"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil || out.Sum != 42 {
		t.Fatalf("reply = %d %s, want 200 with sum 42", resp.StatusCode, body)
	}
	if w := resp.Header.Get("X-Wsupgrade-Winner"); w != "1.0" && w != "1.1" {
		t.Errorf("X-Wsupgrade-Winner = %q", w)
	}
	if resp.Header.Get("X-Wsupgrade-Confidence") == "" {
		t.Error("no X-Wsupgrade-Confidence header")
	}
}
