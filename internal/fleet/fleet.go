// Package fleet hosts many upgrade units behind one listener — the
// multi-component composite scenario of Figs 1 and 4 (§7): a travel
// agency composed of several component Web Services, each of which
// upgrades independently while the composite keeps serving.
//
// A Fleet is a set of named units, each a full managed-upgrade engine
// with its own releases, lifecycle phase, operating mode, monitor and
// switch policy. The fleet contributes what a single engine cannot:
//
//   - one HTTP front door with host/path routing to the unit engines
//     ("/<unit>/…" by path, or exact Host matches per unit);
//   - one release-side transport pool sized across all units, so N
//     units do not each hoard an idle-connection pool;
//   - aggregated health probing and confidence reporting;
//   - a JSON admin API under /fleet/ for per-unit management
//     (phase, mode, release add/remove, confidence, status);
//   - registry upgrade-notification fan-in: one §7.2 callback endpoint
//     that routes "new release published" notifications to the right
//     unit as an online AddRelease.
//
// The unit set is fixed at construction; everything inside a unit
// (releases, phase, mode, timeout) changes online through its engine.
// Routing state is therefore immutable and the request path takes no
// fleet-level locks.
package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"wsupgrade/internal/core"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/registry"
	"wsupgrade/internal/wire"
)

// Errors reported by the fleet.
var (
	// ErrBadConfig reports an invalid fleet configuration.
	ErrBadConfig = errors.New("fleet: bad configuration")
	// ErrUnknownUnit reports an operation on an unhosted unit.
	ErrUnknownUnit = errors.New("fleet: unknown unit")
)

// reservedNames are path roots the fleet keeps for itself.
var reservedNames = map[string]bool{"fleet": true, "healthz": true}

// UnitConfig describes one upgrade unit.
type UnitConfig struct {
	// Name is the unit's routing name: requests under "/<Name>/" reach
	// this unit. Required, unique, no "/", not "fleet" or "healthz".
	Name string
	// Hosts optionally lists exact Host header values (without port)
	// routed to this unit, giving it the whole path space of that
	// virtual host.
	Hosts []string
	// Service is the registry service name whose upgrade notifications
	// feed this unit (default Name).
	Service string
	// Engine is the unit's middleware configuration (Engine.Codec picks
	// its wire protocol, SOAP by default). A unit that sets
	// none of Engine.HTTP, Engine.Dial and Engine.Begin shares the
	// fleet's pooled release transport.
	Engine core.Config
}

// Config parameterizes a Fleet.
type Config struct {
	// Units lists the hosted upgrade units. At least one.
	Units []UnitConfig
	// HTTP is the net/http client behind the shared release transport
	// (one wire client whose per-endpoint pools span all units): it
	// carries release calls to non-http:// endpoints (TLS certificates,
	// credentials) and the units' /healthz probes. Nil means a pooled
	// client the fleet builds and owns.
	HTTP *http.Client
	// AdminToken, when set, guards the management surface: every
	// /fleet/ request except the read-only /fleet/healthz must carry it
	// ("Authorization: Bearer <token>" or a "token" query parameter —
	// Subscribe embeds it in the notification callback URL, since
	// registries POST to the callback verbatim). Empty leaves the admin
	// API open; the fleet shares one listener with consumer traffic, so
	// production deployments should set it or filter /fleet/ upstream.
	AdminToken string
	// JournalDir, when set, makes every unit's campaign durable: phase
	// transitions, release changes and periodic posterior snapshots are
	// journaled to <JournalDir>/<unit>.journal, and a restarted fleet
	// resumes each unit mid-campaign from the replayed journal. A
	// journal that fails replay is quarantined, never fatal.
	JournalDir string
	// SnapshotInterval is the journal snapshot cadence (default
	// DefaultSnapshotInterval). Only meaningful with JournalDir.
	SnapshotInterval time.Duration
}

// Unit is one hosted upgrade unit.
type Unit struct {
	name    string
	service string
	engine  *core.Engine
	handler http.Handler // the engine's full surface (SOAP, /wsdl, /healthz)
	// stripped is handler behind the unit's path prefix; only the two
	// paths that are not demands take it.
	stripped http.Handler
}

// Name returns the unit's routing name.
func (u *Unit) Name() string { return u.name }

// Service returns the registry service name feeding this unit.
func (u *Unit) Service() string { return u.service }

// Engine exposes the unit's managed-upgrade engine for direct
// management (SetPhase, SetMode, AddRelease, Confidence, …).
func (u *Unit) Engine() *core.Engine { return u.engine }

// Fleet hosts N upgrade units behind one http.Handler. Construct with
// New; call Close to drain the units and the shared transport.
type Fleet struct {
	units        []*Unit
	byName       map[string]*Unit
	byHost       map[string]*Unit
	byService    map[string]*Unit
	wire         *wire.Client // shared release transport
	fallback     *http.Client // its net/http fallback and the units' probe client
	ownsFallback bool         // fleet-built rather than Config.HTTP: Close shuts it down
	admin        http.Handler
	adminToken   string

	front frontDoor // the taken-over connections (front.go)

	// Push control plane and durable campaigns (see campaign.go).
	hub           *eventHub
	closeJournals []func() error
	journalNotes  []journalEvent
}

var _ http.Handler = (*Fleet)(nil)

// New validates the configuration and builds the fleet with every
// unit's engine constructed. On failure, whatever was built is closed.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Units) == 0 {
		return nil, fmt.Errorf("%w: no units", ErrBadConfig)
	}
	f := &Fleet{
		byName:     make(map[string]*Unit, len(cfg.Units)),
		byHost:     map[string]*Unit{},
		byService:  make(map[string]*Unit, len(cfg.Units)),
		adminToken: cfg.AdminToken,
		hub:        newEventHub(),
	}

	// One release-side transport for the whole fleet: a shared wire
	// client whose per-endpoint pools span all units (N units must not
	// each hoard idle connections). Exchange deadlines are backstopped
	// by the slowest unit's timeout. Its fallback is a pooled net/http
	// client sized across all units, so https release endpoints keep
	// their per-host idle pools instead of starving on
	// http.DefaultClient.
	maxTimeout := time.Duration(0)
	totalReleases := 0
	for _, u := range cfg.Units {
		maxTimeout = max(maxTimeout, cmp.Or(u.Engine.Timeout, 2*time.Second))
		totalReleases += len(u.Engine.Releases)
	}
	f.fallback = cfg.HTTP
	if f.fallback == nil {
		f.fallback = httpx.NewPooledClient(maxTimeout+500*time.Millisecond, totalReleases)
		f.ownsFallback = true
	}
	f.wire = wire.NewClient(wire.Options{
		Timeout:  maxTimeout + 500*time.Millisecond,
		Fallback: f.fallback,
	})
	built := false
	defer func() {
		if !built {
			_ = f.Close()
		}
	}()

	for _, uc := range cfg.Units {
		if uc.Name == "" || strings.ContainsRune(uc.Name, '/') || reservedNames[uc.Name] {
			return nil, fmt.Errorf("%w: unusable unit name %q", ErrBadConfig, uc.Name)
		}
		if f.byName[uc.Name] != nil {
			return nil, fmt.Errorf("%w: duplicate unit %q", ErrBadConfig, uc.Name)
		}
		ecfg := uc.Engine
		// A unit with its own transport seam (a TLS client, a Dial, an
		// injected Begin) builds on it; everyone else shares the
		// fleet-wide pool and its fallback.
		if ecfg.HTTP == nil && ecfg.Dial == nil && ecfg.Begin == nil {
			ecfg.Begin, ecfg.HTTP = f.wire.Begin, f.fallback
		}
		engine, err := core.New(ecfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: unit %q: %w", uc.Name, err)
		}
		handler := engine.Handler()
		u := &Unit{
			name:     uc.Name,
			service:  uc.Service,
			engine:   engine,
			handler:  handler,
			stripped: http.StripPrefix("/"+uc.Name, handler),
		}
		if u.service == "" {
			u.service = uc.Name
		}
		f.units = append(f.units, u)
		if prev := f.byService[u.service]; prev != nil {
			return nil, fmt.Errorf("%w: units %q and %q share service %q",
				ErrBadConfig, prev.name, u.name, u.service)
		}
		for _, h := range uc.Hosts {
			if h == "" || f.byHost[h] != nil {
				return nil, fmt.Errorf("%w: unusable host %q for unit %q", ErrBadConfig, h, uc.Name)
			}
			f.byHost[h] = u
		}
		f.byName[uc.Name] = u
		f.byService[u.service] = u
	}
	if err := f.setupCampaigns(cfg.JournalDir, cfg.SnapshotInterval); err != nil {
		return nil, err
	}
	f.admin = f.adminHandler()
	built = true
	return f, nil
}

// Close answers the demands in flight on taken-over connections and
// closes those connections, drains every unit's background monitoring
// work, then stops the journal snapshot loops and closes the writers
// (each after a final snapshot), disconnects the event subscribers and
// shuts down the shared transport's keep-alive connections. Engines drain first: a background
// collection still running can fire the switch policy, and its
// transition must reach a journal that is still open. It returns every
// error the engines and journals report, failed writes and drops alike,
// each under its unit's name.
func (f *Fleet) Close() error {
	f.front.close()
	var errs []error
	for _, u := range f.units {
		if err := u.engine.Close(); err != nil {
			errs = append(errs, fmt.Errorf("fleet: unit %q: %w", u.name, err))
		}
	}
	for _, closeJournal := range f.closeJournals {
		errs = append(errs, closeJournal())
	}
	f.closeJournals = nil
	f.hub.Close()
	_ = f.wire.Close()
	if f.ownsFallback {
		f.fallback.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// Units returns the hosted units in configuration order.
func (f *Fleet) Units() []*Unit {
	return append([]*Unit(nil), f.units...)
}

// Unit returns one unit by routing name.
func (f *Fleet) Unit(name string) (*Unit, error) {
	u, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUnit, name)
	}
	return u, nil
}

// ---------------------------------------------------------------------------
// Routing

// ServeHTTP routes one request: exact Host matches first (the unit owns
// that virtual host's whole path space), then the first path segment as
// a unit name (stripped before the unit's engine sees the path), then
// the fleet's own surface (/fleet/… admin + notifications, /healthz).
// A unit demand may take its connection over (front.go).
func (f *Fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if u, rest := f.demandUnit(r.Host, r.URL.Path); u != nil {
		// Straight into the engine with the remainder it routes on, no
		// unit mux hop and no request clone.
		if !f.takeOver(w, r, u, rest) {
			u.engine.ServePath(w, r, rest)
		}
		return
	}
	if len(f.byHost) > 0 {
		if u, ok := f.byHost[hostOnly(r.Host)]; ok {
			u.handler.ServeHTTP(w, r)
			return
		}
	}
	path := r.URL.Path
	if len(path) > 1 {
		seg, rest := splitSegment(path)
		if u, ok := f.byName[seg]; ok {
			u.stripped.ServeHTTP(w, r) // the unit's /wsdl and /healthz
			return
		}
		if seg == "fleet" {
			f.admin.ServeHTTP(w, r)
			return
		}
		if seg == "healthz" && rest == "/" {
			f.serveHealthz(w, r)
			return
		}
	}
	http.NotFound(w, r)
}

// demandUnit returns the unit that a request for host and path is a
// demand of, with the remainder path the engine routes on: a path-routed
// unit's every path but /wsdl and /healthz. It is nil for the rest,
// host-routed units' requests among them (host is only read when some
// unit has hosts).
func (f *Fleet) demandUnit(host, path string) (*Unit, string) {
	if len(f.byHost) > 0 {
		if _, ok := f.byHost[hostOnly(host)]; ok {
			return nil, ""
		}
	}
	if len(path) > 1 {
		seg, rest := splitSegment(path)
		if u, ok := f.byName[seg]; ok && rest != "/wsdl" && rest != "/healthz" {
			return u, rest
		}
	}
	return nil, ""
}

// hostOnly strips a port from a Host header value ("[::1]:80", "a:80").
func hostOnly(host string) string {
	if i := strings.LastIndexByte(host, ':'); i >= 0 && strings.IndexByte(host[i:], ']') < 0 {
		host = host[:i]
	}
	return strings.Trim(host, "[]")
}

// splitSegment returns the first path segment of p (which starts with
// "/") and the remainder path (always starting with "/").
func splitSegment(p string) (seg, rest string) {
	p = p[1:]
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i], p[i:]
	}
	return p, "/"
}

// ---------------------------------------------------------------------------
// Aggregated health and confidence

// UnitHealth is one unit's aggregated probe outcome.
type UnitHealth struct {
	Unit     string        `json:"unit"`
	Releases []core.Health `json:"-"`
	Up       int           `json:"up"`
	DownList []string      `json:"down,omitempty"`
}

// CheckHealth probes every unit's releases concurrently and returns the
// aggregated results, keyed by unit name in configuration order.
func (f *Fleet) CheckHealth(ctx context.Context) []UnitHealth {
	results := make([]UnitHealth, len(f.units))
	var wg sync.WaitGroup
	for i, u := range f.units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probes := u.engine.CheckHealth(ctx)
			uh := UnitHealth{Unit: u.name, Releases: probes}
			for _, h := range probes {
				if h.Up {
					uh.Up++
				} else {
					uh.DownList = append(uh.DownList, h.Release)
				}
			}
			results[i] = uh
		}()
	}
	wg.Wait()
	return results
}

// StartHealthChecks runs CheckHealth on every unit every interval until
// the returned stop function is called.
func (f *Fleet) StartHealthChecks(interval time.Duration) (stop func(), err error) {
	if interval <= 0 {
		return nil, fmt.Errorf("%w: health-check interval %v", ErrBadConfig, interval)
	}
	return lifecycle.Every(interval, func(ctx context.Context) { f.CheckHealth(ctx) }), nil
}

// UnitStatus is one unit's management snapshot.
type UnitStatus struct {
	Unit       string          `json:"unit"`
	Service    string          `json:"service"`
	Phase      string          `json:"phase"`
	Mode       string          `json:"mode"`
	Releases   []core.Endpoint `json:"releases"`
	Down       []string        `json:"down,omitempty"`
	SwitchedAt int             `json:"switchedAt,omitempty"`
	// Confidence is the pooled published confidence, present when the
	// unit has an inference engine.
	Confidence *float64 `json:"confidence,omitempty"`
}

// Status snapshots every unit, including each inference-enabled unit's
// published confidence. Computing a confidence runs a full posterior
// inference per unit; use status(false) internally (or the admin API
// without ?confidence=1) for cheap snapshots.
func (f *Fleet) Status() []UnitStatus { return f.status(true) }

func (f *Fleet) status(withConfidence bool) []UnitStatus {
	out := make([]UnitStatus, 0, len(f.units))
	for _, u := range f.units {
		out = append(out, f.unitStatus(u, withConfidence))
	}
	return out
}

func (f *Fleet) unitStatus(u *Unit, withConfidence bool) UnitStatus {
	e := u.engine
	st := UnitStatus{
		Unit:     u.name,
		Service:  u.service,
		Phase:    e.Phase().String(),
		Mode:     e.Mode().String(),
		Releases: e.Releases(),
	}
	for _, rel := range st.Releases {
		if e.Down(rel.Version) {
			st.Down = append(st.Down, rel.Version)
		}
	}
	if at, ok := e.SwitchedAt(); ok {
		st.SwitchedAt = at
	}
	if withConfidence {
		if rep, err := e.Confidence(""); err == nil {
			conf := rep.Published
			st.Confidence = &conf
		}
	}
	return st
}

// OnTransition registers a fleet-wide lifecycle observer: it fires for
// every unit's transitions with the unit name filled in.
func (f *Fleet) OnTransition(fn func(lifecycle.Transition)) {
	for _, u := range f.units {
		u.engine.OnTransition(func(tr lifecycle.Transition) {
			tr.Unit = u.name
			fn(tr)
		})
	}
}

// ---------------------------------------------------------------------------
// Registry upgrade-notification fan-in (§7.2)

// NotificationHandler accepts the registry's upgrade-notification
// callbacks (the new release's entry as XML, POSTed by the registry on
// publication of a new version) and routes each to the unit whose
// service it names, deploying the release online. One callback endpoint
// serves the whole fleet. It is mounted at /fleet/notify.
func (f *Fleet) NotificationHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", httpx.NotAllowed(w, http.MethodPost))
			return
		}
		entry, err := registry.DecodeEntry(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		u, ok := f.byService[entry.Name]
		if !ok {
			// Not one of ours: acknowledge and ignore (a shared registry
			// may notify broadly).
			w.WriteHeader(http.StatusOK)
			return
		}
		// A unit resting in NewOnly restarts in Observation: AddRelease
		// never serves the unvetted newcomer alone.
		err = u.engine.AddRelease(core.Endpoint{Version: entry.Version, URL: entry.URL})
		switch {
		case err == nil:
			w.WriteHeader(http.StatusOK)
		case errors.Is(err, core.ErrBadConfig):
			// Duplicate or malformed: the notification is not retryable.
			http.Error(w, err.Error(), http.StatusConflict)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Subscribe registers the fleet's notification endpoint with a registry
// for every unit's service. callbackBase is the fleet's public base URL
// (the handler lives at callbackBase + "/fleet/notify").
func (f *Fleet) Subscribe(ctx context.Context, reg *registry.Client, callbackBase string) error {
	callback := strings.TrimSuffix(callbackBase, "/") + "/fleet/notify"
	if f.adminToken != "" {
		callback += "?token=" + url.QueryEscape(f.adminToken)
	}
	for _, u := range f.units {
		if err := reg.Subscribe(ctx, u.service, callback); err != nil {
			return fmt.Errorf("fleet: subscribing %s: %w", u.service, err)
		}
	}
	return nil
}
