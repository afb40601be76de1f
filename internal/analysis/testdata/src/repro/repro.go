// Package repro is detrand's golden package; the directory name opts it
// into the deterministic-package policy.
package repro

import (
	"math/rand" // want `imports math/rand`
	"time"
)

// roll uses the ambient generator; the import diagnostic above covers
// every use in the file.
func roll() int { return rand.Intn(6) }

// now samples the wall clock.
func now() time.Time {
	return time.Now() // want `samples the wall clock`
}

// elapsed derives time from an injected instant; this is the
// deterministic form.
func elapsed(now time.Time, since time.Time) time.Duration {
	return now.Sub(since)
}

// allowedNow samples the wall clock with a justified suppression.
func allowedNow() time.Time {
	//wsu:allow detrand -- testdata: wall-clock stamp outside the replayed path
	return time.Now()
}
