package core

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"wsupgrade/internal/service"
)

// newFlakyRelease wraps a healthy release with a front that rejects the
// first failuresPerRequest attempts of every request with HTTP 503 —
// the transient-failure model of §2.1.
func newFlakyRelease(t *testing.T, failuresPerRequest int) *httptest.Server {
	t.Helper()
	rel, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	inner := rel.Handler()
	var mu sync.Mutex
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Only SOAP calls consume the failure schedule; health probes and
		// other GETs must not skew which retry attempt succeeds.
		if r.Method != http.MethodPost {
			inner.ServeHTTP(w, r)
			return
		}
		mu.Lock()
		attempts++
		reject := attempts%(failuresPerRequest+1) != 0
		mu.Unlock()
		if reject {
			http.Error(w, "transient overload", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}
