package fleet

// The satellite race stress: concurrent per-unit management (phase and
// mode changes through the admin API, online release add/remove and
// health probing on the engines) against consumer traffic dispatched
// through the fleet router. Run with -race. Afterwards the per-unit
// accounting must balance: every served request produced exactly one
// monitor record on exactly its own unit.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/core"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
)

func TestManagementVersusFleetDispatchStress(t *testing.T) {
	respEnv, err := soap.Envelope(service.AddResponse{Sum: 3})
	if err != nil {
		t.Fatal(err)
	}
	// One stub release behind every endpoint name: the Dial seam points
	// the units' wire clients (release calls) and probe clients (/healthz)
	// at it whatever host they ask for.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(respEnv)
	}))
	defer stub.Close()
	dial := func(ctx context.Context, network, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, stub.Listener.Addr().String())
	}
	probes := &http.Client{Transport: &http.Transport{DialContext: dial}}
	defer probes.CloseIdleConnections()

	const unitCount = 3
	units := make([]UnitConfig, unitCount)
	monitors := make([]*monitor.Monitor, unitCount)
	for i := range units {
		monitors[i] = monitor.New(monitor.WithLogCapacity(1 << 14))
		units[i] = UnitConfig{
			Name: fmt.Sprintf("unit%d", i),
			Engine: core.Config{
				Releases: []core.Endpoint{
					{Version: "1.0", URL: fmt.Sprintf("http://u%d-old.invalid", i)},
					{Version: "1.1", URL: fmt.Sprintf("http://u%d-new.invalid", i)},
				},
				Oracle:  oracle.FaultOnly{},
				Monitor: monitors[i],
				Dial:    dial,
				HTTP:    probes,
			},
		}
	}
	fl, err := New(Config{Units: units})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fl)
	defer ts.Close()

	const (
		trafficGoroutines  = 6
		requestsPerRoutine = 25
	)
	env := soap.EnvelopeRaw([]byte(`<addRequest><a>2</a><b>3</b></addRequest>`))
	var wg sync.WaitGroup

	// Per-unit management churn: phases and modes through the admin API,
	// topology and health directly on the engines.
	for i := 0; i < unitCount; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			unit, err := fl.Unit(fmt.Sprintf("unit%d", i))
			if err != nil {
				t.Errorf("unit %d: %v", i, err)
				return
			}
			e := unit.Engine()
			extra := core.Endpoint{Version: "1.2", URL: fmt.Sprintf("http://u%d-extra.invalid", i)}
			phases := []string{"observation", "old-only", "new-only", "parallel"}
			modes := []string{"responsiveness", "dynamic", "sequential", "reliability"}
			client := &http.Client{Timeout: 5 * time.Second}
			for n := 0; n < 25; n++ {
				body := fmt.Sprintf(`{"phase":%q}`, phases[n%len(phases)])
				resp, err := client.Post(
					ts.URL+"/fleet/units/"+unit.Name()+"/phase", "application/json",
					strings.NewReader(body))
				if err != nil {
					t.Errorf("admin phase: %v", err)
					return
				}
				// Racing managers make some transitions illegal (409);
				// anything else is a bug.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
					msg, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					t.Errorf("admin phase: HTTP %d: %s", resp.StatusCode, msg)
					return
				}
				resp.Body.Close()
				resp, err = client.Post(
					ts.URL+"/fleet/units/"+unit.Name()+"/mode", "application/json",
					strings.NewReader(fmt.Sprintf(`{"mode":%q,"quorum":%d}`, modes[n%len(modes)], 1+n%2)))
				if err != nil {
					t.Errorf("admin mode: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					msg, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					t.Errorf("admin mode: HTTP %d: %s", resp.StatusCode, msg)
					return
				}
				resp.Body.Close()
				switch n % 2 {
				case 0:
					if err := e.AddRelease(extra); err != nil {
						t.Errorf("AddRelease: %v", err)
					}
				case 1:
					if err := e.RemoveRelease(extra.Version); err != nil {
						t.Errorf("RemoveRelease: %v", err)
					}
				}
				e.CheckHealth(context.Background())
			}
			_ = e.RemoveRelease(extra.Version)
			if err := e.SetPhase(core.PhaseParallel); err != nil &&
				!errors.Is(err, lifecycle.ErrIllegalTransition) {
				t.Errorf("final SetPhase: %v", err)
			}
		}()
	}

	// Consumer traffic round-robins the units through the fleet router.
	for g := 0; g < trafficGoroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < requestsPerRoutine; n++ {
				unit := fmt.Sprintf("unit%d", (g+n)%unitCount)
				req := httptest.NewRequest(http.MethodPost, "/"+unit+"/", bytes.NewReader(env))
				req.Header.Set("Content-Type", soap.ContentType)
				rec := httptest.NewRecorder()
				fl.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("request to %s failed: HTTP %d: %s", unit, rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	// Per-unit accounting balances: every unit got exactly the requests
	// routed to it, each producing one monitor record on its own unit.
	total := 0
	for i, m := range monitors {
		got := len(m.Log())
		total += got
		if got == 0 {
			t.Errorf("unit %d saw no traffic", i)
		}
		if joint := m.Joint(); !joint.Valid() {
			t.Errorf("unit %d joint counts inconsistent: %+v", i, joint)
		}
	}
	if want := trafficGoroutines * requestsPerRoutine; total != want {
		t.Fatalf("fleet-wide monitor records = %d, want %d (lost or cross-unit demands)", total, want)
	}
}
