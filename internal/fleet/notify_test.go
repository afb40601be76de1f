package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"wsupgrade/internal/core"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/registry"
	"wsupgrade/internal/service"
)

func entryBody(t *testing.T, e registry.Entry) io.Reader {
	t.Helper()
	data, err := xml.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// The §7.2 fan-in: one registry callback endpoint serves the whole
// fleet; publishing a new version of a unit's service deploys the
// release online on exactly that unit.
func TestRegistryNotificationFanIn(t *testing.T) {
	fl, ts := twoUnitFleet(t, func(cfg *Config) {
		// The hotels unit watches a differently-named registry service.
		cfg.Units[1].Service = "HotelService"
	})

	reg := registry.NewServer()
	regTS := httptest.NewServer(reg)
	defer regTS.Close()
	client := &registry.Client{Base: regTS.URL}
	ctx := context.Background()

	// Seed the registry with the current newest releases, then subscribe
	// the fleet.
	for _, seed := range []registry.Entry{
		{Name: "flights", Version: "1.1", URL: "http://flights.invalid"},
		{Name: "HotelService", Version: "1.1", URL: "http://hotels.invalid"},
	} {
		if err := client.Publish(ctx, seed); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.Subscribe(ctx, client, ts.URL); err != nil {
		t.Fatal(err)
	}

	// A new hotels release appears: the registry notifies the fleet
	// synchronously; the unit deploys it online.
	_, h2 := startRelease(t, "1.2", service.FaultPlan{})
	if err := client.Publish(ctx, registry.Entry{
		Name: "HotelService", Version: h2.Version, URL: h2.URL,
	}); err != nil {
		t.Fatal(err)
	}
	hotels, err := fl.Unit("hotels")
	if err != nil {
		t.Fatal(err)
	}
	rels := hotels.Engine().Releases()
	if len(rels) != 3 || rels[2].Version != "1.2" {
		t.Fatalf("hotels releases after notification = %+v", rels)
	}
	// The flights unit was untouched.
	flights, _ := fl.Unit("flights")
	if got := len(flights.Engine().Releases()); got != 2 {
		t.Fatalf("flights releases = %d", got)
	}

	// A unit resting in NewOnly must not hand its traffic to a freshly
	// notified, unvetted release: deployment restarts the campaign in
	// Observation, where the oldest release delivers (§3.2) while the
	// newcomer is observed back-to-back.
	if err := flights.Engine().SetPhase(core.PhaseNewOnly); err != nil {
		t.Fatal(err)
	}
	check := watchRestart(t, fl, flights)
	_, f2 := startRelease(t, "1.2", service.FaultPlan{})
	if err := client.Publish(ctx, registry.Entry{
		Name: "flights", Version: f2.Version, URL: f2.URL,
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(flights.Engine().Releases()); got != 3 {
		t.Fatalf("flights releases after notification = %d", got)
	}
	check()

	// A duplicate notification conflicts (409) but changes nothing.
	resp, err := http.Post(ts.URL+"/fleet/notify", "text/xml",
		entryBody(t, registry.Entry{Name: "HotelService", Version: "1.2", URL: h2.URL}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate notification = %d", resp.StatusCode)
	}
	// A notification for a service no unit watches is acknowledged and
	// ignored.
	resp, err = http.Post(ts.URL+"/fleet/notify", "text/xml",
		entryBody(t, registry.Entry{Name: "CruiseService", Version: "9.9", URL: "http://x.invalid"}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("foreign notification = %d", resp.StatusCode)
	}
	if got := len(hotels.Engine().Releases()); got != 3 {
		t.Fatalf("hotels releases after noise = %d", got)
	}
}

// Fleet-wide transition hooks carry the unit name.
func TestFleetOnTransition(t *testing.T) {
	fl, _ := twoUnitFleet(t, nil)
	events := make(chan lifecycle.Transition, 4)
	fl.OnTransition(func(tr lifecycle.Transition) { events <- tr })
	hotels, _ := fl.Unit("hotels")
	if err := hotels.Engine().SetPhase(core.PhaseNewOnly); err != nil {
		t.Fatal(err)
	}
	tr := <-events
	if tr.Unit != "hotels" || tr.To != core.PhaseNewOnly || tr.Cause != lifecycle.CauseManual {
		t.Fatalf("transition = %+v", tr)
	}
}

// watchRestart observes a NewOnly unit about to gain a release. The
// returned check asserts that the deployment restarted the campaign in
// one step: exactly one transition, NewOnly → Observation with cause
// topology, and the state that carried the newcomer in already in
// Observation, so no demand could reach the newcomer alone.
func watchRestart(t *testing.T, fl *Fleet, u *Unit) (check func()) {
	t.Helper()
	var mu sync.Mutex
	var trs []lifecycle.Transition
	var atAdd []core.Phase
	fl.OnTransition(func(tr lifecycle.Transition) {
		mu.Lock()
		defer mu.Unlock()
		if tr.Unit == u.Name() {
			trs = append(trs, tr)
		}
	})
	u.Engine().OnReleaseChange(func(bool, core.Endpoint) {
		mu.Lock()
		defer mu.Unlock()
		atAdd = append(atAdd, u.Engine().Phase())
	})
	return func() {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		want := lifecycle.Transition{Unit: u.Name(), From: core.PhaseNewOnly, To: core.PhaseObservation, Cause: lifecycle.CauseTopology}
		if len(trs) != 1 || trs[0] != want {
			t.Fatalf("transitions %+v, want exactly %+v", trs, want)
		}
		if len(atAdd) != 1 || atAdd[0] != core.PhaseObservation {
			t.Fatalf("phase when the release joined: %v, want [observation]", atAdd)
		}
	}
}

// The admin API's release deployment restarts a switched unit exactly as
// the registry notification does.
func TestAdminAddReleaseRestartsObservation(t *testing.T) {
	fl, ts := twoUnitFleet(t, nil)
	hotels, err := fl.Unit("hotels")
	if err != nil {
		t.Fatal(err)
	}
	if err := hotels.Engine().SetPhase(core.PhaseNewOnly); err != nil {
		t.Fatal(err)
	}
	check := watchRestart(t, fl, hotels)
	_, extra := startRelease(t, "1.2", service.FaultPlan{})
	body, err := json.Marshal(extra)
	if err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/fleet/units/hotels/releases", string(body), http.StatusOK)
	check()
}
