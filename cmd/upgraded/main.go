// Command upgraded runs the managed-upgrade middleware as a standalone
// proxy (the Fig 4 deployment): consumers call it through the service's
// WSDL interface; it fans requests out to the deployed releases,
// adjudicates, monitors, and switches to the new release when the
// configured confidence criterion is met.
//
// Single-unit mode manages one service from flags:
//
//	upgraded -addr :8080 \
//	    -release 1.0=http://localhost:8081 \
//	    -release 1.1=http://localhost:8082 \
//	    -phase observation -criterion 3 -confidence 0.99 \
//	    -check-every 100 -timeout 2s
//
// The middleware serves SOAP at "/", its confidence-extended WSDL at
// "/wsdl" and liveness at "/healthz"; it answers the §6.2 OperationConf
// and "<op>Conf" operations, and logs every adjudicated demand as JSONL
// to -log (default stderr off). It is hosted as a fleet of one unit
// named "unit" whose own surface is the whole listener (no /fleet/ admin
// API), so -journal-dir keeps its campaign in <dir>/unit.journal.
//
// Fleet mode hosts many upgrade units — the Fig 1/4 composite's
// components, each upgrading independently — behind one listener from a
// JSON config whose unit entries carry the single-unit flags' settings:
//
//	upgraded -addr :8080 -fleet fleet.json
//
//	{
//	  "units": [
//	    {"name": "flights", "phase": "observation", "criterion": 3,
//	     "releases": [{"version": "1.0", "url": "http://localhost:8081"},
//	                  {"version": "1.1", "url": "http://localhost:8082"}]},
//	    {"name": "hotels",
//	     "releases": [{"version": "2.0", "url": "http://localhost:8091"}]}
//	  ]
//	}
//
// Units are served under "/<name>/" (or dedicated virtual hosts via
// "hosts"), with the JSON admin API under /fleet/ (per-unit status,
// SetPhase, SetMode, release add/remove, confidence) and the registry
// upgrade-notification fan-in at /fleet/notify, and, when an admin
// token is set, the process's runtime/pprof profiles at
// /fleet/debug/pprof/; -journal-dir keeps each unit's campaign in
// <dir>/<name>.journal.
//
// On SIGINT/SIGTERM the server drains in-flight requests via
// http.Server.Shutdown (bounded by -drain), then closes the fleet: every
// engine finishes its background monitoring work before the journals
// take a final snapshot and close.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/core"
	"wsupgrade/internal/dispatch"
	"wsupgrade/internal/fleet"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/service"
	"wsupgrade/internal/stats"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "upgraded:", err)
		os.Exit(1)
	}
}

type releaseFlags []core.Endpoint

func (r *releaseFlags) String() string { return fmt.Sprintf("%v", []core.Endpoint(*r)) }

func (r *releaseFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("release must be version=url, got %q", v)
	}
	*r = append(*r, core.Endpoint{Version: parts[0], URL: parts[1]})
	return nil
}

// unitRecord is one upgrade unit: a -fleet config entry, or the
// single-unit flags bound onto the same fields. Zero values take the
// engine's defaults.
type unitRecord struct {
	Name       string       `json:"name"`
	Hosts      []string     `json:"hosts,omitempty"`
	Service    string       `json:"service,omitempty"`
	Releases   releaseFlags `json:"releases"`
	Phase      string       `json:"phase,omitempty"`
	Mode       string       `json:"mode,omitempty"`
	Quorum     int          `json:"quorum,omitempty"`
	Timeout    millis       `json:"timeoutMs,omitempty"`
	Criterion  int          `json:"criterion,omitempty"`
	Confidence float64      `json:"confidence,omitempty"`
	Target     float64      `json:"target,omitempty"`
	CheckEvery int          `json:"checkEvery,omitempty"`
	PfdUpper   float64      `json:"pfdUpper,omitempty"`
	Oracle     string       `json:"oracle,omitempty"`
	// Protocol is the unit's wire protocol: "soap" (default) or
	// "json". A JSON unit skips the SOAP-only §6.2 confidence
	// operations and the /wsdl contract; confidence publishes over the
	// X-Wsupgrade-Confidence HTTP header instead.
	Protocol string `json:"protocol,omitempty"`
	Log      string `json:"log,omitempty"`
}

// millis is a duration the config spells in whole milliseconds
// ("timeoutMs") and the -timeout flag as a Go duration.
type millis time.Duration

func (m *millis) UnmarshalJSON(data []byte) error {
	var ms int
	err := json.Unmarshal(data, &ms)
	*m = millis(time.Duration(ms) * time.Millisecond)
	return err
}

// engineConfig translates a unit record into a core.Config. The
// returned closer owns the JSONL log file, if any.
func engineConfig(u unitRecord) (core.Config, io.Closer, error) {
	cfg := core.Config{
		Releases: u.Releases,
		Timeout:  time.Duration(u.Timeout),
		Quorum:   u.Quorum,
	}
	if len(u.Releases) == 0 {
		return cfg, nil, fmt.Errorf("at least one release is required")
	}

	if u.Phase != "" {
		phase, err := lifecycle.ParsePhase(u.Phase)
		if err != nil {
			return cfg, nil, fmt.Errorf("unknown phase %q", u.Phase)
		}
		cfg.InitialPhase = phase
	}
	if u.Mode != "" {
		mode, err := dispatch.ParseMode(u.Mode)
		if err != nil {
			return cfg, nil, fmt.Errorf("unknown mode %q", u.Mode)
		}
		cfg.Mode = mode
	}

	jsonUnit := false
	switch u.Protocol {
	case "", "soap":
	case "json":
		jsonUnit = true
		cfg.Codec = jsoncodec.Default
	default:
		return cfg, nil, fmt.Errorf("unknown protocol %q", u.Protocol)
	}

	switch u.Oracle {
	case "fault-only":
		cfg.Oracle = oracle.FaultOnly{}
	case "reference", "":
		cfg.Oracle = oracle.Reference{Release: u.Releases[0].Version, Codec: cfg.Codec}
	case "back-to-back":
		cfg.Oracle = oracle.BackToBack{Codec: cfg.Codec}
	default:
		return cfg, nil, fmt.Errorf("unknown oracle %q", u.Oracle)
	}

	pfdUpper := u.PfdUpper
	if pfdUpper == 0 {
		pfdUpper = 0.1
	}
	prior := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: pfdUpper}
	cfg.Inference = &bayes.WhiteBoxConfig{
		PriorA: prior, PriorB: prior,
		GridA: 60, GridB: 60, GridC: 16, GridAB: 80,
	}
	cfg.ConfidenceTarget = u.Target
	cfg.PublishHeader = true
	if !jsonUnit {
		// The §6.2 confidence operations and the /wsdl contract are
		// SOAP-native; a JSON unit publishes confidence over the
		// X-Wsupgrade-Confidence HTTP header alone.
		cfg.EnableConfOps = true
		contract := service.DemoContract(u.Releases[len(u.Releases)-1].Version)
		cfg.Contract = &contract
	}

	if u.Criterion != 0 {
		confidence := u.Confidence
		if confidence == 0 {
			confidence = 0.99
		}
		var crit bayes.Criterion
		switch u.Criterion {
		case 1:
			c1, err := bayes.NewCriterion1(prior, confidence)
			if err != nil {
				return cfg, nil, err
			}
			crit = c1
		case 2:
			crit = bayes.Criterion2{Confidence: confidence, Target: u.Target}
		case 3:
			crit = bayes.Criterion3{Confidence: confidence}
		default:
			return cfg, nil, fmt.Errorf("unknown criterion %d", u.Criterion)
		}
		checkEvery := u.CheckEvery
		if checkEvery == 0 {
			checkEvery = 100
		}
		cfg.Policy = &core.PolicyConfig{Criterion: crit, CheckEvery: checkEvery}
	}

	var closer io.Closer
	if u.Log != "" {
		f, err := os.OpenFile(u.Log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return cfg, nil, fmt.Errorf("opening log: %w", err)
		}
		cfg.Store = f
		closer = f
	}
	return cfg, closer, nil
}

// fleetFile is the -fleet JSON configuration.
type fleetFile struct {
	// AdminToken guards the /fleet/ management surface (see
	// fleet.Config.AdminToken); the -admin-token flag overrides it.
	AdminToken string       `json:"adminToken,omitempty"`
	Units      []unitRecord `json:"units"`
}

// loadFleetFile reads the -fleet JSON file. A key the schema does not
// know (a typo, an option since removed) is an error naming it, not a
// unit silently running on defaults.
func loadFleetFile(path string) (fleetFile, error) {
	var ff fleetFile
	data, err := os.ReadFile(path)
	if err != nil {
		return ff, fmt.Errorf("reading fleet config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ff); err != nil {
		return ff, fmt.Errorf("parsing fleet config: %w", err)
	}
	if dec.More() {
		return ff, fmt.Errorf("parsing fleet config: trailing data after the configuration object")
	}
	return ff, nil
}

// fleetConfig builds the fleet configuration from unit records; a unit
// without a target takes defaultTarget. The closers own the units' log
// files.
func fleetConfig(ff fleetFile, defaultTarget float64) (fleet.Config, []io.Closer, error) {
	cfg := fleet.Config{AdminToken: ff.AdminToken}
	var closers []io.Closer
	for _, u := range ff.Units {
		if u.Target == 0 {
			u.Target = defaultTarget
		}
		ecfg, closer, err := engineConfig(u)
		if err != nil {
			closeAll(closers)
			return fleet.Config{}, nil, fmt.Errorf("unit %q: %w", u.Name, err)
		}
		if closer != nil {
			closers = append(closers, closer)
		}
		cfg.Units = append(cfg.Units, fleet.UnitConfig{
			Name:    u.Name,
			Hosts:   u.Hosts,
			Service: u.Service,
			Engine:  ecfg,
		})
	}
	return cfg, closers, nil
}

func closeAll(closers []io.Closer) {
	for _, c := range closers {
		_ = c.Close()
	}
}

// onListen, when set, observes the bound listener address (tests bind
// to :0 and need the real port).
var onListen func(net.Addr)

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("upgraded", flag.ContinueOnError)
	// Single-unit mode's flags fill the record a -fleet entry would.
	unit := unitRecord{Name: "unit"}
	fs.Var(&unit.Releases, "release", "deployed release as version=url (repeat; oldest first)")
	fs.StringVar(&unit.Phase, "phase", "parallel", "initial phase: old-only|observation|parallel|new-only")
	fs.StringVar(&unit.Mode, "mode", "reliability", "fan-out mode: reliability|responsiveness|dynamic|sequential")
	fs.IntVar(&unit.Quorum, "quorum", 1, "responses to wait for in dynamic mode")
	fs.DurationVar((*time.Duration)(&unit.Timeout), "timeout", 2*time.Second, "per-request fan-out timeout")
	fs.IntVar(&unit.Criterion, "criterion", 3, "switch criterion (1, 2 or 3); 0 disables auto-switch")
	fs.Float64Var(&unit.Confidence, "confidence", 0.99, "criterion confidence level")
	fs.Float64Var(&unit.Target, "target", 1e-3, "criterion 2 pfd target / published-confidence target")
	fs.IntVar(&unit.CheckEvery, "check-every", 100, "evaluate the criterion every N demands")
	fs.Float64Var(&unit.PfdUpper, "pfd-upper", 0.1, "prior pfd support upper bound")
	fs.StringVar(&unit.Log, "log", "", "JSONL event log path (empty = no log)")
	fs.StringVar(&unit.Oracle, "oracle", "reference", "failure oracle: fault-only|reference|back-to-back")
	fs.StringVar(&unit.Protocol, "protocol", "soap", "wire protocol of the mediated unit: soap|json")
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		fleetPath  = fs.String("fleet", "", "fleet config JSON: host many upgrade units behind this listener")
		adminToken = fs.String("admin-token", "", "fleet mode: token guarding the /fleet/ admin API (overrides the config's adminToken)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		journalDir = fs.String("journal-dir", "", "directory for durable campaign journals; a restart resumes each unit's phase and posterior from its journal")
		snapEvery  = fs.Duration("snapshot-interval", fleet.DefaultSnapshotInterval, "journal snapshot cadence (with -journal-dir)")
		addrFile   = fs.String("addr-file", "", "write the bound listener address to this file (for wrappers that start on :0)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ff := fleetFile{Units: []unitRecord{unit}}
	if *fleetPath != "" {
		var err error
		if ff, err = loadFleetFile(*fleetPath); err != nil {
			return err
		}
	}
	// -target is the single unit's target and every fleet unit's default.
	cfg, logClosers, err := fleetConfig(ff, unit.Target)
	if err != nil {
		return err
	}
	if *adminToken != "" {
		cfg.AdminToken = *adminToken
	}
	cfg.JournalDir, cfg.SnapshotInterval = *journalDir, *snapEvery
	f, err := fleet.New(cfg)
	if err != nil {
		closeAll(logClosers)
		return err
	}
	closer := func() error {
		err := f.Close()
		closeAll(logClosers)
		return err
	}
	var handler http.Handler = f
	if cfg.AdminToken != "" {
		handler = withProfiles(f)
	}
	banner := fmt.Sprintf("hosting %d upgrade units on %s", len(cfg.Units), *addr)
	if *fleetPath == "" {
		// A fleet of one: the unit's own surface is the whole listener.
		handler = f.Units()[0].Engine().Handler()
		ecfg := cfg.Units[0].Engine
		banner = fmt.Sprintf("managing %d releases on %s (phase %v, mode %v)",
			len(unit.Releases), *addr, ecfg.InitialPhase, ecfg.Mode)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = closer()
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	if *addrFile != "" {
		// Write-then-rename so a polling wrapper never reads a torn file.
		tmp := *addrFile + ".tmp"
		werr := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644)
		if werr == nil {
			werr = os.Rename(tmp, *addrFile)
		}
		if werr != nil {
			_ = ln.Close()
			_ = closer()
			return fmt.Errorf("writing -addr-file: %w", werr)
		}
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("upgraded: %s", banner)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		_ = closer()
		return err
	case <-ctx.Done():
		// Drain in-flight requests, then let the fleet finish its
		// background monitoring work and close its journals.
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		shutErr := srv.Shutdown(drainCtx)
		if shutErr != nil {
			_ = srv.Close()
		}
		closeErr := closer()
		<-errCh // Serve has returned (http.ErrServerClosed)
		log.Printf("upgraded: drained and stopped")
		return errors.Join(shutErr, closeErr)
	}
}
