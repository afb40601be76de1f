// Command wsdemo serves one release of the demo Web Service (the paper's
// §6.2 example contract: operation1 + add) with an injectable fault and
// latency profile, standing in for a real third-party release:
//
//	wsdemo -addr :8081 -version 1.0                 # dependable release
//	wsdemo -addr :8082 -version 1.1 -ner 0.05       # buggy new release
//	wsdemo -addr :8082 -version 1.1 -er 0.1 -latency 50ms
//
// Optionally the release publishes itself to a registry:
//
//	wsdemo -addr :8081 -version 1.0 -registry http://localhost:8070 \
//	       -public http://localhost:8081
//
// The service exposes SOAP at "/" and, to a demand whose Content-Type
// names JSON, REST/JSON at "/<operation>" (so `upgraded -protocol json`
// can front it), its WSDL at "/wsdl", and liveness at "/healthz". Every
// response carries the release version header and a ground-truth
// injection marker usable by test oracles.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"wsupgrade/internal/registry"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wsdemo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wsdemo", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8081", "listen address")
		version = fs.String("version", "1.0", "release version")
		er      = fs.Float64("er", 0, "probability of an evident failure per demand")
		ner     = fs.Float64("ner", 0, "probability of a non-evident failure per demand")
		latency = fs.Duration("latency", 0, "mean injected latency (exponential)")
		seed    = fs.Uint64("seed", 1, "fault-injection seed")
		regURL  = fs.String("registry", "", "registry base URL to publish to (optional)")
		public  = fs.String("public", "", "public URL of this release (for registry publication)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *er+*ner > 1 {
		return fmt.Errorf("er+ner = %v exceeds 1", *er+*ner)
	}
	plan := service.FaultPlan{
		Profile:     relmodel.Profile{CR: 1 - *er - *ner, ER: *er, NER: *ner},
		MeanLatency: *latency,
		Seed:        *seed,
	}
	rel, err := service.New(service.DemoContract(*version), service.DemoBehaviours(), plan)
	if err != nil {
		return err
	}
	if *regURL != "" {
		if *public == "" {
			return fmt.Errorf("-registry requires -public")
		}
		client := &registry.Client{Base: *regURL}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := client.Publish(ctx, registry.Entry{
			Name:    rel.Contract().Name,
			Version: *version,
			URL:     *public,
		}); err != nil {
			return fmt.Errorf("publishing to registry: %w", err)
		}
		log.Printf("wsdemo: published %s %s to %s", rel.Contract().Name, *version, *regURL)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           rel.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("wsdemo: release %s listening on %s (ER=%.3f NER=%.3f latency=%v)",
		*version, *addr, *er, *ner, *latency)
	return srv.ListenAndServe()
}
