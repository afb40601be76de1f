// Restgateway: the managed-upgrade engine behind a REST/JSON face
// (DESIGN.md §9).
//
// Two JSON releases of the demo service run side by side behind one
// upgrade unit configured with the JSON codec: consumers POST JSON
// bodies to /api/<operation>, the unit fans each demand out, judges
// and adjudicates the replies, and answers in JSON — the §4 mediation
// pipeline is exactly the one the SOAP gateway uses, only the codec
// differs. The published §6.2 confidence rides the
// X-Wsupgrade-Confidence response header (JSON has no native header
// representation), and a demand whose Content-Type contradicts the
// unit's protocol is refused with 415 before it can be charged to any
// release.
//
// Run with: go run ./examples/restgateway
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"wsupgrade"
	"wsupgrade/internal/bayes"
	"wsupgrade/internal/core"
	"wsupgrade/internal/fleet"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// serve starts an HTTP handler on an ephemeral local port.
func serve(h http.Handler) (url string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

func run() error {
	// --- Two JSON releases: old proven-but-flawed, new better-but-unproven --
	var releases []core.Endpoint
	var stops []func()
	defer func() {
		for _, s := range stops {
			s()
		}
	}()
	for i, plan := range []service.FaultPlan{
		{Profile: relmodel.Profile{CR: 0.93, ER: 0.05, NER: 0.02}, Seed: 41},
		{Profile: relmodel.Profile{CR: 0.99, ER: 0.008, NER: 0.002}, Seed: 42},
	} {
		version := fmt.Sprintf("1.%d", i)
		rel, err := service.NewJSON(version, service.DemoJSONBehaviours(), plan)
		if err != nil {
			return err
		}
		url, stop, err := serve(rel.Handler())
		if err != nil {
			return err
		}
		stops = append(stops, stop)
		releases = append(releases, core.Endpoint{Version: version, URL: url})
	}

	// --- One upgrade unit, JSON codec --------------------------------------
	prior := wsupgrade.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.3}
	fl, err := fleet.New(fleet.Config{Units: []fleet.UnitConfig{{
		Name: "api",
		Engine: core.Config{
			Codec:        jsoncodec.Default,
			Releases:     releases,
			InitialPhase: wsupgrade.PhaseObservation,
			Oracle:       oracle.Reference{Release: releases[0].Version, Codec: jsoncodec.Default},
			Inference: &wsupgrade.WhiteBoxConfig{
				PriorA: prior, PriorB: prior,
				GridA: 50, GridB: 50, GridC: 12, GridAB: 60,
			},
			Policy: &wsupgrade.PolicyConfig{
				Criterion:  bayes.Criterion3{Confidence: 0.95},
				CheckEvery: 50,
				MinDemands: 100,
			},
			ConfidenceTarget: 0.05,
			PublishHeader:    true,
			Seed:             7,
		},
	}}})
	if err != nil {
		return err
	}
	defer fl.Close()
	gatewayURL, stopGateway, err := serve(fl)
	if err != nil {
		return err
	}
	defer stopGateway()
	fmt.Printf("gateway: REST unit on %s/api (POST /api/add, /api/operation1)\n", gatewayURL)

	fl.OnTransition(func(tr wsupgrade.Transition) {
		fmt.Printf("gateway: unit %s %v → %v (%v)\n", tr.Unit, tr.From, tr.To, tr.Cause)
	})

	// --- JSON demands through the mediated unit ----------------------------
	client := &http.Client{Timeout: 10 * time.Second}
	ok, failed := 0, 0
	var lastConfidence string
	for i := 1; i <= 600; i++ {
		body, _ := json.Marshal(service.AddJSONRequest{A: i, B: 2 * i})
		resp, err := client.Post(gatewayURL+"/api/add", "application/json", bytes.NewReader(body))
		if err != nil {
			failed++
			continue
		}
		raw, readErr := httpx.ReadBounded(resp.Body, 1<<20)
		if c := resp.Header.Get(core.ConfidenceHeader); c != "" {
			lastConfidence = c
		}
		resp.Body.Close()
		var out service.AddJSONResponse
		if readErr == nil {
			readErr = json.Unmarshal(raw, &out)
		}
		if resp.StatusCode != http.StatusOK || readErr != nil || out.Sum != 3*i {
			failed++ // evident failure on both releases, or a §5.2 escape
			continue
		}
		ok++
	}
	fmt.Printf("consumer: %d demands adjudicated OK, %d failed; published confidence %s\n",
		ok, failed, lastConfidence)

	// --- The 415 front door ------------------------------------------------
	// A SOAP envelope aimed at the JSON unit never reaches a release.
	resp, err := client.Post(gatewayURL+"/api/add", "text/xml",
		strings.NewReader(`<Envelope/>`))
	if err != nil {
		return err
	}
	resp.Body.Close()
	fmt.Printf("gateway: text/xml demand at the JSON unit → HTTP %d\n", resp.StatusCode)

	st := fl.Status()[0]
	conf := 0.0
	if st.Confidence != nil {
		conf = *st.Confidence
	}
	fmt.Printf("gateway: unit %s phase=%s confidence=%.3f releases=%d\n",
		st.Unit, st.Phase, conf, len(st.Releases))
	return nil
}
