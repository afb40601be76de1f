package core

import (
	"io"
	"testing"

	"wsupgrade/internal/service"
	"wsupgrade/internal/testutil"
)

// TestEngineCloseLeavesNoGoroutines: a served engine — live dispatches,
// both releases observed, monitoring recording to a Store — must tear
// down to nothing on Close: no collector goroutines, no pooled-transport
// watchers, no policy evaluators, no Store writer.
func TestEngineCloseLeavesNoGoroutines(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{
		Releases:     []Endpoint{old, new_},
		InitialPhase: PhaseObservation,
		Store:        io.Discard,
	})
	for i := 0; i < 8; i++ {
		if _, err := callAdd(t, ts.URL, i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	// startEngine's cleanup closes the engine; CheckGoroutines' cleanup
	// (registered first, so running last) asserts nothing survived.
}
