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
// to -log (default stderr off).
//
// Fleet mode hosts many upgrade units — the Fig 1/4 composite's
// components, each upgrading independently — behind one listener from a
// JSON config:
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
// upgrade-notification fan-in at /fleet/notify.
//
// On SIGINT/SIGTERM the server drains in-flight requests via
// http.Server.Shutdown (bounded by -drain), then closes the engine or
// fleet so background monitoring work completes.
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
	"path/filepath"
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

// unitParams is everything needed to build one unit's engine config —
// shared by the single-unit flags and each fleet config entry.
type unitParams struct {
	Releases   []core.Endpoint
	Phase      string
	Mode       string
	Quorum     int
	Timeout    time.Duration
	Criterion  int
	Confidence float64
	Target     float64
	CheckEvery int
	PfdUpper   float64
	Oracle     string
	LogPath    string
	// Protocol is the unit's wire protocol: "soap" (default) or
	// "json". A JSON unit skips the SOAP-only §6.2 confidence
	// operations and the /wsdl contract; confidence publishes over the
	// X-Wsupgrade-Confidence HTTP header instead.
	Protocol string
}

// engineConfig translates unit parameters into a core.Config. The
// returned closer owns the JSONL log file, if any.
func engineConfig(p unitParams) (core.Config, io.Closer, error) {
	cfg := core.Config{
		Releases: p.Releases,
		Timeout:  p.Timeout,
		Quorum:   p.Quorum,
	}
	if len(p.Releases) == 0 {
		return cfg, nil, fmt.Errorf("at least one release is required")
	}

	if p.Phase != "" {
		phase, err := lifecycle.ParsePhase(p.Phase)
		if err != nil {
			return cfg, nil, fmt.Errorf("unknown phase %q", p.Phase)
		}
		cfg.InitialPhase = phase
	}
	if p.Mode != "" {
		mode, err := dispatch.ParseMode(p.Mode)
		if err != nil {
			return cfg, nil, fmt.Errorf("unknown mode %q", p.Mode)
		}
		cfg.Mode = mode
	}

	jsonUnit := false
	switch p.Protocol {
	case "", "soap":
	case "json":
		jsonUnit = true
		cfg.Codec = jsoncodec.Default
	default:
		return cfg, nil, fmt.Errorf("unknown protocol %q", p.Protocol)
	}

	switch p.Oracle {
	case "fault-only":
		cfg.Oracle = oracle.FaultOnly{}
	case "reference", "":
		cfg.Oracle = oracle.Reference{Release: p.Releases[0].Version, Codec: cfg.Codec}
	case "back-to-back":
		cfg.Oracle = oracle.BackToBack{Codec: cfg.Codec}
	default:
		return cfg, nil, fmt.Errorf("unknown oracle %q", p.Oracle)
	}

	pfdUpper := p.PfdUpper
	if pfdUpper == 0 {
		pfdUpper = 0.1
	}
	prior := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: pfdUpper}
	cfg.Inference = &bayes.WhiteBoxConfig{
		PriorA: prior, PriorB: prior,
		GridA: 60, GridB: 60, GridC: 16, GridAB: 80,
	}
	cfg.ConfidenceTarget = p.Target
	cfg.PublishHeader = true
	if !jsonUnit {
		// The §6.2 confidence operations and the /wsdl contract are
		// SOAP-native; a JSON unit publishes confidence over the
		// X-Wsupgrade-Confidence HTTP header alone.
		cfg.EnableConfOps = true
		contract := service.DemoContract(p.Releases[len(p.Releases)-1].Version)
		cfg.Contract = &contract
	}

	if p.Criterion != 0 {
		confidence := p.Confidence
		if confidence == 0 {
			confidence = 0.99
		}
		var crit bayes.Criterion
		switch p.Criterion {
		case 1:
			c1, err := bayes.NewCriterion1(prior, confidence)
			if err != nil {
				return cfg, nil, err
			}
			crit = c1
		case 2:
			crit = bayes.Criterion2{Confidence: confidence, Target: p.Target}
		case 3:
			crit = bayes.Criterion3{Confidence: confidence}
		default:
			return cfg, nil, fmt.Errorf("unknown criterion %d", p.Criterion)
		}
		checkEvery := p.CheckEvery
		if checkEvery == 0 {
			checkEvery = 100
		}
		cfg.Policy = &core.PolicyConfig{Criterion: crit, CheckEvery: checkEvery}
	}

	var closer io.Closer
	if p.LogPath != "" {
		f, err := os.OpenFile(p.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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
	AdminToken string      `json:"adminToken,omitempty"`
	Units      []fleetUnit `json:"units"`
}

type fleetUnit struct {
	Name       string          `json:"name"`
	Hosts      []string        `json:"hosts,omitempty"`
	Service    string          `json:"service,omitempty"`
	Releases   []core.Endpoint `json:"releases"`
	Phase      string          `json:"phase,omitempty"`
	Mode       string          `json:"mode,omitempty"`
	Quorum     int             `json:"quorum,omitempty"`
	TimeoutMS  int             `json:"timeoutMs,omitempty"`
	Criterion  int             `json:"criterion,omitempty"`
	Confidence float64         `json:"confidence,omitempty"`
	Target     float64         `json:"target,omitempty"`
	CheckEvery int             `json:"checkEvery,omitempty"`
	PfdUpper   float64         `json:"pfdUpper,omitempty"`
	Oracle     string          `json:"oracle,omitempty"`
	Protocol   string          `json:"protocol,omitempty"`
	Log        string          `json:"log,omitempty"`
}

// loadFleetConfig builds the fleet configuration from a JSON file. A key
// the schema does not know (a typo, an option since removed) is an
// error naming it, not a unit silently running on defaults.
func loadFleetConfig(path string, defaultTarget float64) (fleet.Config, []io.Closer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return fleet.Config{}, nil, fmt.Errorf("reading fleet config: %w", err)
	}
	var ff fleetFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ff); err != nil {
		return fleet.Config{}, nil, fmt.Errorf("parsing fleet config: %w", err)
	}
	if dec.More() {
		return fleet.Config{}, nil, fmt.Errorf("parsing fleet config: trailing data after the configuration object")
	}
	if len(ff.Units) == 0 {
		return fleet.Config{}, nil, fmt.Errorf("fleet config has no units")
	}
	cfg := fleet.Config{AdminToken: ff.AdminToken}
	var closers []io.Closer
	closeAll := func() {
		for _, c := range closers {
			_ = c.Close()
		}
	}
	for _, u := range ff.Units {
		target := u.Target
		if target == 0 {
			target = defaultTarget
		}
		ecfg, closer, err := engineConfig(unitParams{
			Releases:   u.Releases,
			Phase:      u.Phase,
			Mode:       u.Mode,
			Quorum:     u.Quorum,
			Timeout:    time.Duration(u.TimeoutMS) * time.Millisecond,
			Criterion:  u.Criterion,
			Confidence: u.Confidence,
			Target:     target,
			CheckEvery: u.CheckEvery,
			PfdUpper:   u.PfdUpper,
			Oracle:     u.Oracle,
			Protocol:   u.Protocol,
			LogPath:    u.Log,
		})
		if err != nil {
			closeAll()
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

// onListen, when set, observes the bound listener address (tests bind
// to :0 and need the real port).
var onListen func(net.Addr)

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("upgraded", flag.ContinueOnError)
	var releases releaseFlags
	fs.Var(&releases, "release", "deployed release as version=url (repeat; oldest first)")
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		fleetPath  = fs.String("fleet", "", "fleet config JSON: host many upgrade units behind this listener")
		phase      = fs.String("phase", "parallel", "initial phase: old-only|observation|parallel|new-only")
		mode       = fs.String("mode", "reliability", "fan-out mode: reliability|responsiveness|dynamic|sequential")
		quorum     = fs.Int("quorum", 1, "responses to wait for in dynamic mode")
		timeout    = fs.Duration("timeout", 2*time.Second, "per-request fan-out timeout")
		criterion  = fs.Int("criterion", 3, "switch criterion (1, 2 or 3); 0 disables auto-switch")
		confidence = fs.Float64("confidence", 0.99, "criterion confidence level")
		target     = fs.Float64("target", 1e-3, "criterion 2 pfd target / published-confidence target")
		checkEvery = fs.Int("check-every", 100, "evaluate the criterion every N demands")
		pfdUpper   = fs.Float64("pfd-upper", 0.1, "prior pfd support upper bound")
		logPath    = fs.String("log", "", "JSONL event log path (empty = no log)")
		oracleName = fs.String("oracle", "reference", "failure oracle: fault-only|reference|back-to-back")
		protoName  = fs.String("protocol", "soap", "wire protocol of the mediated unit: soap|json")
		adminToken = fs.String("admin-token", "", "fleet mode: token guarding the /fleet/ admin API (overrides the config's adminToken)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		journalDir = fs.String("journal-dir", "", "directory for durable campaign journals; a restart resumes each unit's phase and posterior from its journal")
		snapEvery  = fs.Duration("snapshot-interval", fleet.DefaultSnapshotInterval, "journal snapshot cadence (with -journal-dir)")
		addrFile   = fs.String("addr-file", "", "write the bound listener address to this file (for wrappers that start on :0)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		handler http.Handler
		closer  func() error
		banner  string
	)
	if *fleetPath != "" {
		cfg, logClosers, err := loadFleetConfig(*fleetPath, *target)
		if err != nil {
			return err
		}
		if *adminToken != "" {
			cfg.AdminToken = *adminToken
		}
		cfg.JournalDir = *journalDir
		cfg.SnapshotInterval = *snapEvery
		f, err := fleet.New(cfg)
		if err != nil {
			for _, c := range logClosers {
				_ = c.Close()
			}
			return err
		}
		handler = f
		closer = func() error {
			err := f.Close()
			for _, c := range logClosers {
				_ = c.Close()
			}
			return err
		}
		banner = fmt.Sprintf("hosting %d upgrade units on %s", len(cfg.Units), *addr)
	} else {
		cfg, logCloser, err := engineConfig(unitParams{
			Releases:   releases,
			Phase:      *phase,
			Mode:       *mode,
			Quorum:     *quorum,
			Timeout:    *timeout,
			Criterion:  *criterion,
			Confidence: *confidence,
			Target:     *target,
			CheckEvery: *checkEvery,
			PfdUpper:   *pfdUpper,
			Oracle:     *oracleName,
			Protocol:   *protoName,
			LogPath:    *logPath,
		})
		if err != nil {
			return err
		}
		engine, err := core.New(cfg)
		if err != nil {
			if logCloser != nil {
				_ = logCloser.Close()
			}
			return err
		}
		var journalCloser func() error
		if *journalDir != "" {
			// The single-unit counterpart of the fleet's per-unit journal,
			// with the quarantine/restore notes going to the log.
			journalCloser, err = engine.OpenJournal(filepath.Join(*journalDir, "unit.journal"), *snapEvery,
				func(note string) { log.Printf("upgraded: %s", note) })
			if err != nil {
				_ = engine.Close()
				if logCloser != nil {
					_ = logCloser.Close()
				}
				return err
			}
		}
		handler = engine.Handler()
		closer = func() error {
			err := engine.Close()
			if journalCloser != nil {
				if jerr := journalCloser(); err == nil {
					err = jerr
				}
			}
			if logCloser != nil {
				_ = logCloser.Close()
			}
			return err
		}
		banner = fmt.Sprintf("managing %d releases on %s (phase %v, mode %v)",
			len(releases), *addr, cfg.InitialPhase, cfg.Mode)
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
		// Drain in-flight requests, then let the engine/fleet finish its
		// background monitoring work.
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
