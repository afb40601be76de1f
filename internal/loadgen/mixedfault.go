package loadgen

import (
	"context"

	"wsupgrade/internal/relmodel"
)

// mixedFault is the combined chaos campaign: two fault modes injected
// concurrently across two upgrade units in one run. The flights unit's
// new release is slow, and omits 10% of its responses (eq. 7: its
// execution time outlasts the engine timeout); the hotels unit's new
// release returns well-formed but wrong answers on every demand. The
// claims are the paper's two central dependability properties, asserted
// under combined stress rather than one fault at a time:
//
//   - corrupt never wins: no wrong answer reaches a consumer, and the
//     corrupt release never wins adjudication (§4.2, §5.2.1);
//   - availability-confidence separation: the monitoring subsystem keeps
//     high availability confidence in the healthy old release while the
//     omitting release's confidence is visibly depressed (§6.1), with
//     the cross-unit chaos not blurring either verdict.
func mixedFault(ctx context.Context, opts ScenarioOptions) (ScenarioResult, error) {
	var res ScenarioResult
	const oldA, newA = "1.0", "1.1"
	const oldB, newB = "2.0", "2.1"
	d, err := deploy(opts.Seed,
		unitSpec{
			name:    "flights",
			old:     releaseSpec{version: oldA},
			new:     releaseSpec{version: newA, plan: omits10},
			timeout: omissionTimeout,
		},
		unitSpec{
			name: "hotels",
			old:  releaseSpec{version: oldB},
			new:  releaseSpec{version: newB, plan: corrupt},
		},
	)
	if err != nil {
		return res, err
	}
	defer d.close()

	opts.logf("mixed-fault: driving %d demands across %s and %s",
		opts.Requests, d.unitURL("flights"), d.unitURL("hotels"))
	load, err := Run(ctx, Options{
		URLs:        []string{d.unitURL("flights"), d.unitURL("hotels")},
		Concurrency: opts.Concurrency,
		Requests:    opts.Requests,
		Seed:        opts.Seed,
	})
	if err != nil {
		return res, err
	}
	res.Load = &load
	flights := unitReport(d, "flights", oldA, newA)
	hotels := unitReport(d, "hotels", oldB, newB)
	res.Units = []UnitReport{flights, hotels}
	res.Injected = injected(d)

	// The campaign only counts if both fault modes actually fired,
	// concurrently, on their respective units.
	res.check(res.Injected["flights"][abandoned] > 0,
		"no omissions injected on flights")
	res.check(res.Injected["hotels"][relmodel.NonEvidentFailure.String()] > 0,
		"no corrupt responses injected on hotels")

	// Consumers are fully shielded: correct responses only, from the old
	// releases, on both units at once.
	res.check(load.Requests == opts.Requests, "drove %d demands, want %d", load.Requests, opts.Requests)
	res.check(load.Verdicts[VerdictOK] == load.Requests,
		"verdicts %v: combined faults leaked to consumers", load.Verdicts)
	res.check(load.Verdicts[VerdictWrong] == 0,
		"%d corrupt responses reached a consumer", load.Verdicts[VerdictWrong])
	res.check(load.Winners[newB] == 0,
		"corrupt release %s won adjudication %d times", newB, load.Winners[newB])

	// Correctness: the oracle charges the corrupt unit's failures to its
	// new release, and white-box confidence in it stays low.
	res.check(hotels.NewJudgedFailures >= hotels.NewDemands*9/10,
		"oracle judged only %d of %d corrupt responses as failures", hotels.NewJudgedFailures, hotels.NewDemands)
	res.check(hotels.NewConfidence < 0.5,
		"confidence in the 100%%-corrupt release = %.3f", hotels.NewConfidence)

	// Availability-confidence separation on the omitting unit: trust in
	// the old release, visible distrust of the new one — undisturbed by
	// the other unit's concurrent corruption.
	res.check(flights.NewResponses < flights.NewDemands,
		"monitor saw %d/%d responses from the omitting release — omissions unobserved",
		flights.NewResponses, flights.NewDemands)
	res.check(flights.OldAvailConfidence >= 0.9,
		"availability confidence in the healthy old release = %.3f", flights.OldAvailConfidence)
	res.check(flights.NewAvailConfidence <= 0.5,
		"availability confidence in the 10%%-omitting release = %.3f — should be depressed",
		flights.NewAvailConfidence)
	return res, nil
}
