package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/wire"
)

// The probes call single layers directly, outside the mediator, with
// the workload's own bodies: numbers for layers no seam lets a span
// around, and the rung that compares the two release transports.

// timeCalls runs call a tenth of calls times to warm up, then calls
// times, and returns the median duration of the measured calls and their
// allocations per call.
func timeCalls(calls int, call func(i int) error) (p50us, allocs float64, err error) {
	for i := 0; i < calls/10; i++ {
		if err := call(i); err != nil {
			return 0, 0, err
		}
	}
	lat := make([]int64, calls)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range lat {
		start := time.Now()
		if err := call(i); err != nil {
			return 0, 0, err
		}
		lat[i] = int64(time.Since(start))
	}
	runtime.ReadMemStats(&m1)
	slices.Sort(lat)
	return quantile(lat, 0.5) / 1e3, float64(m1.Mallocs-m0.Mallocs) / float64(calls), nil
}

// probeTransports posts the workload's requests straight at the old
// stub through each of the two release transports.
func probeTransports(fx *fixtures, url string, calls int) (wireP50, wireAllocs, httpxP50, httpxAllocs float64, err error) {
	ctx := context.Background()
	// checked turns a transport's post into a probe call that verifies
	// the reply's status and size and gives the pooled body back.
	checked := func(post func(body []byte) (httpx.Result, error)) func(int) error {
		return func(i int) error {
			d := &fx.demands[i%len(fx.demands)]
			res, err := post(d.request)
			if err != nil {
				return err
			}
			ok := res.Status == 200 && len(res.Body) == len(d.reply)
			res.BodyBuf.Release()
			if !ok {
				return fmt.Errorf("transport probe: status %d, %d bytes", res.Status, len(res.Body))
			}
			return nil
		}
	}

	wc := wire.NewClient(wire.Options{Timeout: 5 * time.Second})
	wireP50, wireAllocs, err = timeCalls(calls, checked(func(body []byte) (httpx.Result, error) {
		return wc.PostXML(ctx, url, fx.contentType, body, httpx.NoRetry)
	}))
	_ = wc.Close()
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("wire: %w", err)
	}

	hc := httpx.NewPooledClient(5*time.Second, 1)
	httpxP50, httpxAllocs, err = timeCalls(calls, checked(func(body []byte) (httpx.Result, error) {
		return httpx.PostXML(ctx, hc, url, fx.contentType, body, httpx.NoRetry)
	}))
	hc.CloseIdleConnections()
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("httpx: %w", err)
	}
	return wireP50, wireAllocs, httpxP50, httpxAllocs, nil
}

// probeMonitorNote records demands of the workload's shape — as many
// observations as releases called, bodies of the replies' size — into a
// monitor of its own.
func probeMonitorNote(w workload, fx *fixtures, calls int) float64 {
	// A short ring, so the warm-up calls lap it and the timed calls meet
	// slots whose backing is allocated, as in a mediator past warm-up.
	mon := monitor.New(monitor.WithLogCapacity(64))
	versions := []string{oldVersion, newVersion}[:w.releaseCalls]
	obs := make([]monitor.Observation, len(versions))
	for i, v := range versions {
		obs[i] = monitor.Observation{
			Release: v, ID: mon.Intern(v), Responded: true, Judged: true, Latency: 50 * time.Microsecond,
		}
	}
	rec := monitor.Record{Operation: operation, Winner: oldVersion, Releases: obs}
	if len(obs) == 2 {
		rec.Joint = bayes.Outcome(false, false)
	}
	p50, _, _ := timeCalls(calls, func(i int) error {
		d := &fx.demands[i%len(fx.demands)]
		for j := range obs {
			obs[j].Body = d.payload
		}
		rec.Time = time.Now()
		mon.Note(rec)
		return nil
	})
	return p50
}

// probePosterior runs the white-box inference on the scenario-scale grid
// at the joint counts the run ended with.
func probePosterior(counts bayes.JointCounts, calls int) (float64, error) {
	wb, err := bayes.NewWhiteBox(inferenceGrid())
	if err != nil {
		return 0, err
	}
	p50, _, err := timeCalls(calls, func(int) error {
		_, err := wb.Posterior(counts)
		return err
	})
	return p50, err
}
