package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 24

// options is one run: a workload, a seed, and how long to measure.
type options struct {
	workload workload
	seed     uint64
	// measure is the total measured time, split over the run's phases.
	measure time.Duration
	// blockLen is the length of one block of the saturated phase; the
	// serial phase's allocation blocks are half as long.
	blockLen time.Duration
	// warmup is the least time, and warmDemands the least number of
	// mediated demands, before anything is timed. The demands outnumber
	// the 4096 slots of the monitor's event-log ring, whose first lap
	// allocates every slot's backing: with 64 KB replies that lap is
	// five times slower than the laps after it.
	warmup      time.Duration
	warmDemands int64
	// setups is how many times set-up is repeated for its median.
	setups int
	// trace adds the traced phase and the per-layer metrics.
	trace     bool
	traceFile string
	// probeCalls is how many calls each direct layer probe times.
	probeCalls int
	// minPairs is the least number of block pairs of the saturated phase.
	minPairs int
	// steady applies the two gates that only a full-length run in steady
	// state can pass: tailSamples samples beyond every p99, and a ledger
	// that adds up. The smoke test runs without them.
	steady bool
	log    io.Writer
}

func defaultOptions(w workload, seed uint64, seconds int, trace bool) options {
	return options{
		workload: w, seed: seed, trace: trace,
		measure:     time.Duration(seconds) * time.Second,
		blockLen:    250 * time.Millisecond,
		warmup:      2 * time.Second,
		warmDemands: 6000,
		setups:      15,
		probeCalls:  2000,
		minPairs:    10,
		steady:      true,
		traceFile:   ".bench_build/trace-" + w.name + ".jsonl",
		log:         os.Stderr,
	}
}

// result is what one run found.
type result struct {
	// endToEnd is measured by every run, with tracing off. perLayer is
	// filled by a traced run only, which spends half its time on the
	// traced phase, so its end-to-end numbers rest on half the samples.
	endToEnd map[string]float64
	perLayer map[string]float64
	// attempted and failed count the mediated demands of the untraced
	// phases; a wrong reply delivered is a failed demand.
	attempted, failed int64
	// violations lists every correctness gate the run failed; the run is
	// correct when it is empty.
	violations []string
	clients    int
	windows    int // of the serial phase
	pairs      int // of the saturated phase
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// system is a deployment with the consumers that drive it.
type system struct {
	*deployment
	consumers []*consumer
}

// setUp builds the stubs, the listeners, the fleet and the consumers,
// and returns once a first mediated demand has succeeded.
func setUp(w workload, fx *fixtures, rec *recorder) (*system, error) {
	d, err := deploy(w, fx, rec)
	if err != nil {
		return nil, err
	}
	s := &system{deployment: d}
	// As many clients as processors saturate the mediator; each starts
	// its blocks at its own place in the request table.
	clients := runtime.GOMAXPROCS(0)
	for i := 0; i < clients; i++ {
		s.consumers = append(s.consumers, newConsumer(fx, i*len(fx.demands)/clients))
	}
	if _, v := s.consumers[0].demand(&s.mediated, 0); v != delivered {
		s.close()
		return nil, fmt.Errorf("the first mediated demand was not delivered")
	}
	return s, nil
}

// close tears the system down and collects what it held — with 64 KB
// replies the monitor's ring alone is 600 MB — so that the next system
// of the run starts from the heap this one started from.
func (s *system) close() {
	for _, c := range s.consumers {
		c.close()
	}
	s.deployment.close()
	runtime.GC()
}

// sent is how many demands the consumers sent each way, set-up and
// warm-up included.
func (s *system) sent() (direct, mediated int64) {
	for _, c := range s.consumers {
		direct += c.sent[0]
		mediated += c.sent[1]
	}
	return direct, mediated
}

// warm runs both sides with every client until connections are open,
// pools and the monitor's ring are filled and lazy set-up is done.
func (s *system) warm(o *options) {
	start := time.Now()
	runBlock(s.consumers, &s.direct, o.warmup/8)
	for {
		runBlock(s.consumers, &s.mediated, o.warmup/8)
		if _, mediated := s.sent(); time.Since(start) >= o.warmup && mediated >= o.warmDemands {
			return
		}
	}
}

// releaseCalls is the stubs' calls per mediated demand.
func (s *system) releaseCalls() float64 {
	direct, mediated := s.sent()
	return float64(s.releases[0].calls.Load()-direct+s.releases[1].calls.Load()) / float64(mediated)
}

// conservation checks that the mediator's monitor recorded exactly the
// calls the stubs received from it, release by release, and returns
// recorded ÷ received for the release where they differ most.
func (s *system) conservation() (share float64, err error) {
	direct, _ := s.sent()
	share = 1
	for lane, version := range []string{oldVersion, newVersion} {
		received := s.releases[lane].calls.Load()
		if lane == 0 {
			received -= direct
		}
		recorded := int64(0)
		if st, serr := s.engine.Stats(version); serr == nil {
			recorded = int64(st.Demands)
		}
		if recorded == received {
			continue // both zero for the new release in the old-only phase
		}
		err = errors.Join(err, fmt.Errorf("release %s: monitor recorded %d of %d calls", version, recorded, received))
		if r := float64(recorded) / float64(max(received, 1)); math.Abs(r-1) > math.Abs(share-1) {
			share = r
		}
	}
	return share, err
}

// runWorkload is one run of the benchmark.
func runWorkload(o options) (*result, error) {
	started := time.Now()
	res := &result{endToEnd: map[string]float64{}, clients: runtime.GOMAXPROCS(0)}
	goroutines := runtime.NumGoroutine()
	fx := makeFixtures(o.workload, o.seed)

	// Set-up, repeated for a steady median; the last one is kept.
	var sys *system
	setupTimes := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if sys != nil {
			sys.close()
		}
		t := time.Now()
		var err error
		if sys, err = setUp(o.workload, fx, nil); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}
	defer func() {
		if sys != nil { // an early return; the run itself closes it below
			sys.close()
		}
	}()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sys.warm(&o)
	share := time.Duration(2)
	if o.trace {
		share = 4 // the traced phase takes the other half
	}
	// The serial phase: latency from interleaved demands, then a few
	// blocks of one client for the allocation count, which is exact and
	// needs no more. The saturated phase: every client, in blocks.
	const allocPairs = 4
	allocLen := allocPairs * o.blockLen
	ser := runSerial(sys.consumers[0], &sys.mediated, &sys.direct, o.measure/share-allocLen)
	cnt := runPairs(sys.consumers[:1], &sys.mediated, &sys.direct, allocLen, o.blockLen/2, allocPairs)
	sat := runPairs(sys.consumers, &sys.mediated, &sys.direct, o.measure/share, o.blockLen, o.minPairs)
	runtime.ReadMemStats(&m1)

	satM, satD := totals(sat)
	cntM, cntD := totals(cnt)
	mediated, direct := satM.tally, satD.tally
	for _, t := range []tally{ser.m, cntM.tally} {
		mediated.merge(t)
	}
	for _, t := range []tally{ser.d, cntD.tally} {
		direct.merge(t)
	}
	res.attempted = int64(mediated.demands)
	res.failed = int64(mediated.failed + mediated.wrong)
	if direct.failed+direct.wrong > 0 {
		res.violate("%d of %d direct demands failed: the stub or the consumer is broken", direct.failed+direct.wrong, direct.demands)
	}
	if res.failed > 0 {
		res.violate("%d of %d mediated demands failed, %d of them wrong replies delivered", res.failed, res.attempted, mediated.wrong)
	}
	recorded, err := sys.conservation()
	if err != nil {
		res.violate("monitor conservation: %v", err)
	}
	calls := sys.releaseCalls()
	if calls != float64(o.workload.releaseCalls) {
		res.violate("release calls per mediated demand: %v, want %d", calls, o.workload.releaseCalls)
	}
	faults := sys.releases[1].wrong.Load()
	if o.workload.wrongShare > 0 && faults == 0 {
		res.violate("the new release served no wrong reply")
	}
	if got := sys.engine.Phase(); got != o.workload.phase {
		res.violate("phase moved from %v to %v", o.workload.phase, got)
	}
	tail := ser.windows(p99WindowSamples)
	res.windows, res.pairs = len(tail), len(sat)
	if o.steady && len(tail[0].mediated) < p99WindowSamples {
		res.violate("the serial phase's p99 rests on %d samples; %d are needed", len(tail[0].mediated), p99WindowSamples)
	}

	e := res.endToEnd
	e["latency_p50_x"] = quantileRatio(ser.windows(p50WindowSamples), 0.5)
	e["latency_p99_x"] = quantileRatio(tail, 0.99)
	e["capacity_x"] = medianOfPairs(sat, func(m, d *block) float64 { return m.perSecond() / d.perSecond() })
	e["cpu_x"] = medianOfPairs(sat, func(m, d *block) float64 { return m.cpuPerDemand() / d.cpuPerDemand() })
	e["extra_allocs_per_demand"] = medianOfPairs(cnt, func(m, d *block) float64 { return m.allocsPerDemand() - d.allocsPerDemand() })
	e["setup_s"] = median(setupTimes)

	// The untraced system has given all it has; the traced one, if any,
	// gets the machine to itself.
	joint := sys.engine.Monitor().Joint()
	sys.close()
	sys = nil

	if o.trace {
		res.perLayer = map[string]float64{}
		l := res.perLayer
		all := ser.whole()
		l["client.mediated_p50_us"] = quantile(all.mediated, 0.5) / 1e3
		l["client.mediated_p99_us"] = quantile(all.mediated, 0.99) / 1e3
		l["client.mediated_mean_us"] = mean(all.mediated) / 1e3
		l["client.mediated_rps"] = satM.perSecond()
		l["client.direct_p50_us"] = quantile(all.direct, 0.5) / 1e3
		l["client.direct_p99_us"] = quantile(all.direct, 0.99) / 1e3
		l["client.direct_mean_us"] = mean(all.direct) / 1e3
		l["client.direct_rps"] = satD.perSecond()
		l["client.attempted"] = float64(res.attempted)
		l["client.failed"] = float64(res.failed)
		l["client.failed_share"] = float64(res.failed) / float64(res.attempted)
		l["client.wrong_delivered"] = float64(mediated.wrong)
		l["release.calls_per_demand"] = calls
		l["release.faults_injected"] = float64(faults)
		l["monitor.recorded_share"] = recorded
		l["process.cpu_us_per_demand"] = satM.cpuPerDemand() / 1e3
		l["process.allocs_per_demand"] = satM.allocsPerDemand()
		l["process.alloc_bytes_per_demand"] = float64(satM.bytes) / float64(satM.demands)
		l["process.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		l["process.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		l["process.heap_inuse_mb"] = float64(m1.HeapInuse) / (1 << 20)
		if err := runTraced(&o, fx, res, e["latency_p50_x"], mean(all.mediated), mean(all.direct)); err != nil {
			return nil, err
		}
		if l["bayes.posterior_p50_us"], err = probePosterior(joint, o.probeCalls/10); err != nil {
			return nil, err
		}
		l["monitor.note_p50_us"] = probeMonitorNote(o.workload, fx, o.probeCalls)
	}

	// Everything the run started must be gone: a goroutine left behind
	// is a leak in the mediator or in the harness.
	left := settledGoroutines(goroutines)
	if left > goroutines {
		res.violate("%d goroutines before the run, %d after it", goroutines, left)
	}
	if o.trace {
		res.perLayer["process.goroutines_end"] = float64(left)
	}
	if e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	for _, table := range []struct {
		metrics []metric
		values  map[string]float64
	}{{endToEnd, res.endToEnd}, {perLayer, res.perLayer}} {
		for _, m := range table.metrics {
			if v, ok := table.values[m.name]; table.values != nil && (!ok || math.IsNaN(v) || math.IsInf(v, 0)) {
				res.violate("%s is %v (measured: %v)", m.name, v, ok)
			}
		}
	}
	fmt.Fprintf(o.log, "%s seed %d: %d mediated demands, %d failed; set-up %.2f ms; %d p99 windows, %d pairs, %d clients; %.1f s\n",
		o.workload.name, o.seed, res.attempted, res.failed, 1e3*e["setup_s"], res.windows, res.pairs, res.clients, time.Since(started).Seconds())
	return res, nil
}

// runTraced deploys the decorated system and runs the traced phase: the
// serial phase again, with a span around every seam while a mediated
// demand is in flight. untracedX, mediatedMean and directMean are the
// untraced serial phase's p50 ratio and mean latencies (ns), against
// which overhead and the ledger's remainder are taken.
func runTraced(o *options, fx *fixtures, res *result, untracedX, mediatedMean, directMean float64) error {
	l := res.perLayer
	length := o.measure / 2
	rec := newRecorder(int(length / (40 * time.Microsecond)))
	sys, err := setUp(o.workload, fx, rec)
	if err != nil {
		return err
	}
	defer sys.close()
	sys.warm(o)
	sys.consumers[0].rec = rec
	ser := runSerial(sys.consumers[0], &sys.mediated, &sys.direct, length)
	sys.consumers[0].rec = nil

	if bad := ser.m.failed + ser.m.wrong + ser.d.failed + ser.d.wrong; bad > 0 {
		res.violate("%d demands failed in the traced phase", bad)
	}
	if _, err := sys.conservation(); err != nil {
		res.violate("monitor conservation, traced deployment: %v", err)
	}
	if rec.overflow > 0 {
		res.violate("trace: %d demands overflowed their span table", rec.overflow)
	}
	if rec.demands == 0 {
		return fmt.Errorf("the traced phase recorded no demand")
	}

	demands := float64(rec.demands)
	perCall := func(kind int) float64 {
		if rec.count[kind] == 0 {
			return 0
		}
		return float64(rec.duration[kind]) / float64(rec.count[kind]) / 1e3
	}
	self := func(layer int) float64 { return float64(rec.self[layer]) / demands / 1e3 }
	slices.Sort(rec.handlerNs)
	slices.Sort(rec.wireNs)
	wireCalls := float64(max(rec.count[spanWireCall], 1))

	l["inbound.net_mean_us"] = self(layerInbound)
	l["fleet.handler_mean_us"] = perCall(spanFleetHandler)
	l["fleet.handler_p99_us"] = quantile(rec.handlerNs, 0.99) / 1e3
	l["protocol.decode_request_mean_us"] = perCall(spanDecodeRequest)
	l["protocol.decode_reply_mean_us"] = perCall(spanDecodeReply)
	l["protocol.equal_mean_us"] = perCall(spanEqual)
	l["protocol.write_body_mean_us"] = perCall(spanWriteBody)
	protocolCalls, protocolBytes := int64(0), int64(0)
	for _, kind := range []int{spanDecodeRequest, spanDecodeReply, spanEqual, spanWriteBody} {
		protocolCalls += rec.count[kind]
		protocolBytes += rec.bytes[kind]
	}
	l["protocol.calls_per_demand"] = float64(protocolCalls) / demands
	l["protocol.bytes_per_demand"] = float64(protocolBytes) / demands
	l["protocol.self_mean_us"] = self(layerProtocol)
	l["oracle.judge_mean_us"] = perCall(spanOracleJudge)
	l["oracle.self_mean_us"] = self(layerOracle)
	l["adjudicate.adjudicate_mean_us"] = perCall(spanAdjudicate)
	l["wire.rtt_mean_us"] = perCall(spanWireCall)
	l["wire.rtt_p99_us"] = quantile(rec.wireNs, 0.99) / 1e3
	l["wire.self_mean_us"] = self(layerWire)
	l["wire.dials"] = float64(rec.dials)
	l["wire.writes_per_call"] = float64(rec.wireWrites) / wireCalls
	l["wire.reads_per_call"] = float64(rec.wireReads) / wireCalls
	l["wire.bytes_per_call"] = float64(rec.wireBytes) / wireCalls
	l["release.handler_mean_us"] = perCall(spanReleaseHandler)
	l["release.self_mean_us"] = self(layerRelease)
	l["core.self_mean_us"] = self(layerCore)

	spans := int64(0)
	for _, n := range rec.count {
		spans += n
	}
	l["trace.spans"] = float64(spans)
	// Both comparisons with the untraced phase go through the direct
	// calls interleaved with each, so a machine that changed speed
	// between the two phases does not pass for overhead or for
	// unattributed time.
	all := ser.whole()
	l["trace.overhead_us"] = (quantileRatio(ser.windows(p50WindowSamples), 0.5) - untracedX) * quantile(all.direct, 0.5) / 1e3
	attributed := float64(0)
	for layer := 0; layer < layers; layer++ {
		attributed += float64(rec.self[layer]) / demands
	}
	l["ledger.unattributed_share"] = 1 - attributed/(mediatedMean*mean(all.direct)/directMean)
	// The gate is on what this phase alone can answer: do the spans
	// account for the latency the consumer measured around the same
	// demands? Against the untraced phase the sum wanders by more than
	// that on the byte-heavy workload, whose mean is mostly compute and
	// garbage collection and does not follow the direct calls' speed.
	if missing := 1 - attributed/mean(all.mediated); o.steady && math.Abs(missing) > 0.15 {
		res.violate("the ledger's layers add up to %.0f %% of the traced demands' latency", 100*(1-missing))
	}

	if o.traceFile != "" {
		if err := rec.writeTrace(o.traceFile); err != nil {
			return fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Fprintf(o.log, "%s: %d spans of the first %d traced demands in %s\n", o.workload.name, len(rec.kept), rec.keptDemands, o.traceFile)
	}
	fmt.Fprintf(o.log, "%s: traced: mediated p50 %.1f mean %.1f us, direct p50 %.1f mean %.1f us; %d spans closed late\n", o.workload.name,
		quantile(all.mediated, 0.5)/1e3, mean(all.mediated)/1e3, quantile(all.direct, 0.5)/1e3, mean(all.direct)/1e3, rec.unclosed)
	fmt.Fprintf(o.log, "%s: where a mediated demand's %.1f us go:", o.workload.name, attributed/1e3)
	for layer := 0; layer < layers; layer++ {
		fmt.Fprintf(o.log, " %s %.1f", layerNames[layer], self(layer))
	}
	fmt.Fprintln(o.log)

	l["wire.post_p50_us"], l["wire.post_allocs"], l["httpx.post_p50_us"], l["httpx.post_allocs"], err = probeTransports(fx, sys.direct.url, o.probeCalls)
	return err
}

// settledGoroutines waits briefly for closed connections' goroutines to
// notice, and returns the goroutine count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		// "VmHWM:    29876 kB"
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
