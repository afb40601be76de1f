package fleet

// The JSON admin API: per-unit management over HTTP, mounted under
// /fleet/ by the fleet router.
//
//	GET    /fleet/units                       → []UnitStatus
//	GET    /fleet/units/<unit>                → UnitStatus
//	POST   /fleet/units/<unit>/phase          {"phase":"parallel"}
//	POST   /fleet/units/<unit>/mode           {"mode":"dynamic","quorum":2}
//	POST   /fleet/units/<unit>/releases       {"version":"1.2","url":"http://…"}
//	DELETE /fleet/units/<unit>/releases/<ver> → phases the release out
//	GET    /fleet/units/<unit>/confidence?operation=op → core.ConfidenceReport
//	GET    /fleet/healthz                     → []UnitHealth (503 if any unit is all-down)
//	GET    /fleet/events                      → Server-Sent Events stream (see sse.go)
//	POST   /fleet/notify                      → registry upgrade-notification fan-in

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"wsupgrade/internal/core"
	"wsupgrade/internal/dispatch"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/lifecycle"
)

// maxAdminBody bounds admin request bodies.
const maxAdminBody = 1 << 20

func (f *Fleet) adminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/units", f.handleUnits)
	mux.HandleFunc("/fleet/units/", f.handleUnit)
	mux.HandleFunc("/fleet/healthz", f.serveHealthz)
	mux.HandleFunc("/fleet/events", f.handleEvents)
	mux.Handle("/fleet/notify", f.NotificationHandler())
	if f.adminToken == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The liveness probe stays open; everything else on the
		// management surface needs the token.
		if r.URL.Path != "/fleet/healthz" && !f.Authorized(r) {
			writeJSON(w, http.StatusUnauthorized, errorBody{Error: "fleet: admin token required"})
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// Authorized reports whether r carries the fleet's admin token, as
// "Authorization: Bearer <token>" or a "token" query parameter (the form
// Subscribe embeds in the notification callback URL), compared in
// constant time. Every request is authorized on a fleet without a token,
// whose management surface is open.
func (f *Fleet) Authorized(r *http.Request) bool {
	token := r.URL.Query().Get("token")
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		token = strings.TrimPrefix(h, "Bearer ")
	}
	return subtle.ConstantTimeCompare([]byte(token), []byte(f.adminToken)) == 1
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownUnit), errors.Is(err, core.ErrUnknownRelease):
		status = http.StatusNotFound
	case errors.Is(err, lifecycle.ErrIllegalTransition):
		status = http.StatusConflict
	case errors.Is(err, core.ErrBadConfig), errors.Is(err, core.ErrBadPhase),
		errors.Is(err, core.ErrNoInference), errors.Is(err, ErrBadConfig):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func decodeJSON(r *http.Request, v interface{}) error {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxAdminBody))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// wantConfidence reports whether the caller opted into the expensive
// per-unit posterior computation via ?confidence=1 (status reads and
// mutation echoes are cheap snapshots by default).
func wantConfidence(r *http.Request) bool {
	return r.URL.Query().Get("confidence") != ""
}

// handleUnits serves GET /fleet/units.
func (f *Fleet) handleUnits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", httpx.NotAllowed(w, http.MethodGet))
		return
	}
	writeJSON(w, http.StatusOK, f.status(wantConfidence(r)))
}

// handleUnit serves everything under /fleet/units/<unit>.
func (f *Fleet) handleUnit(w http.ResponseWriter, r *http.Request) {
	rest := r.URL.Path[len("/fleet/units/"):]
	seg, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		seg, sub = rest[:i], rest[i+1:]
	}
	u, err := f.Unit(seg)
	if err != nil {
		writeError(w, err)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, f.unitStatus(u, wantConfidence(r)))
	case sub == "phase":
		f.handlePhase(w, r, u)
	case sub == "mode":
		f.handleMode(w, r, u)
	case sub == "releases":
		f.handleAddRelease(w, r, u)
	case len(sub) > len("releases/") && sub[:len("releases/")] == "releases/":
		f.handleRemoveRelease(w, r, u, sub[len("releases/"):])
	case sub == "confidence":
		f.handleConfidence(w, r, u)
	default:
		http.NotFound(w, r)
	}
}

func (f *Fleet) handlePhase(w http.ResponseWriter, r *http.Request, u *Unit) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", httpx.NotAllowed(w, http.MethodPost))
		return
	}
	var req struct {
		Phase string `json:"phase"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	p, err := lifecycle.ParsePhase(req.Phase)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := u.engine.SetPhase(p); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, f.unitStatus(u, false))
}

func (f *Fleet) handleMode(w http.ResponseWriter, r *http.Request, u *Unit) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", httpx.NotAllowed(w, http.MethodPost))
		return
	}
	var req struct {
		Mode   string `json:"mode"`
		Quorum int    `json:"quorum"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	m, err := dispatch.ParseMode(req.Mode)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := u.engine.SetMode(m, req.Quorum); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, f.unitStatus(u, false))
}

func (f *Fleet) handleAddRelease(w http.ResponseWriter, r *http.Request, u *Unit) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", httpx.NotAllowed(w, http.MethodPost))
		return
	}
	var ep core.Endpoint
	if err := decodeJSON(r, &ep); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := u.engine.AddRelease(ep); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, f.unitStatus(u, false))
}

func (f *Fleet) handleRemoveRelease(w http.ResponseWriter, r *http.Request, u *Unit, version string) {
	if r.Method != http.MethodDelete {
		http.Error(w, "DELETE only", httpx.NotAllowed(w, http.MethodDelete))
		return
	}
	if err := u.engine.RemoveRelease(version); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, f.unitStatus(u, false))
}

func (f *Fleet) handleConfidence(w http.ResponseWriter, r *http.Request, u *Unit) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", httpx.NotAllowed(w, http.MethodGet))
		return
	}
	rep, err := u.engine.Confidence(r.URL.Query().Get("operation"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// serveHealthz probes every unit and reports 503 when any unit has all
// its releases down (the composite cannot serve that component at all).
func (f *Fleet) serveHealthz(w http.ResponseWriter, r *http.Request) {
	results := f.CheckHealth(r.Context())
	status := http.StatusOK
	for _, uh := range results {
		if uh.Up == 0 {
			status = http.StatusServiceUnavailable
			break
		}
	}
	writeJSON(w, status, results)
}
