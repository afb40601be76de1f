package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/bayes"
	"wsupgrade/internal/core"
	"wsupgrade/internal/fleet"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/stats"
)

const (
	unitName   = "u"
	oldVersion = "1.0"
	newVersion = "1.1"
)

// inferenceGrid is the scenario-scale white-box grid internal/loadgen
// uses: coarse enough to run per demand, fine enough for its ±0.05
// confidence assertions.
func inferenceGrid() bayes.WhiteBoxConfig {
	prior := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.3}
	return bayes.WhiteBoxConfig{PriorA: prior, PriorB: prior, GridA: 40, GridB: 40, GridC: 10, GridAB: 48}
}

// deployment is one workload's system under test on loopback TCP: two
// stub releases, and a real fleet.Fleet of one unit behind net/http.
type deployment struct {
	releases [2]*release
	fleet    *fleet.Fleet
	engine   *core.Engine
	servers  []*http.Server
	serving  sync.WaitGroup

	mediated, direct target
}

// deploy starts the stubs, builds the fleet and starts its listener.
// With a recorder it builds the traced deployment: the same system with
// a decorator at each public seam.
func deploy(w workload, fx *fixtures, rec *recorder) (*deployment, error) {
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	var urls [2]string
	lanes := map[string]int{}
	for lane := range d.releases {
		d.releases[lane] = newRelease(lane, fx, lane == 1, rec)
		addr, err := d.serve(d.releases[lane])
		if err != nil {
			return nil, err
		}
		urls[lane] = "http://" + addr
		lanes[addr] = lane
	}

	codec := soapcodec.Default
	if w.json {
		codec = jsoncodec.Default
	}
	engine := core.Config{
		Releases:     []core.Endpoint{{Version: oldVersion, URL: urls[0]}, {Version: newVersion, URL: urls[1]}},
		InitialPhase: w.phase,
		Mode:         core.ModeReliability,
		Codec:        codec,
		Oracle:       oracle.Reference{Release: oldVersion, Codec: codec},
		Adjudicator:  adjudicate.RandomValid{},
	}
	if w.publish {
		grid := inferenceGrid()
		engine.Inference = &grid
		engine.PublishHeader = true
	}
	if rec != nil {
		traced := traceCodec(codec, rec)
		engine.Codec = traced
		engine.Oracle = tracedOracle{Oracle: oracle.Reference{Release: oldVersion, Codec: traced}, rec: rec}
		engine.Adjudicator = tracedAdjudicator{Adjudicator: adjudicate.RandomValid{}, rec: rec}
		engine.Dial = (&tracedDialer{rec: rec, lanes: lanes}).dial
	}

	f, err := fleet.New(fleet.Config{Units: []fleet.UnitConfig{{Name: unitName, Engine: engine}}})
	if err != nil {
		return nil, fmt.Errorf("building the fleet: %w", err)
	}
	d.fleet = f
	unit, err := f.Unit(unitName)
	if err != nil {
		return nil, err
	}
	d.engine = unit.Engine()

	var front http.Handler = f
	if rec != nil {
		front = tracedHandler{next: f, rec: rec}
	}
	addr, err := d.serve(front)
	if err != nil {
		return nil, err
	}
	d.mediated = target{
		url:      "http://" + addr + "/" + unitName + fx.path,
		mediated: true, soap: !w.json, wantConfidence: w.publish,
	}
	d.direct = target{url: urls[0] + fx.path}
	ok = true
	return d, nil
}

func (d *deployment) serve(h http.Handler) (addr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	d.servers = append(d.servers, srv)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed from close
	}()
	return ln.Addr().String(), nil
}

// close stops the listeners, drains the fleet and waits for the serving
// goroutines; the deployment's goroutines are gone when it returns.
func (d *deployment) close() {
	for _, srv := range d.servers {
		_ = srv.Close()
	}
	d.serving.Wait()
	if d.fleet != nil {
		_ = d.fleet.Close()
	}
}
