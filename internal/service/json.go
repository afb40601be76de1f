package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
)

// JSONBehaviour is one operation's REST/JSON implementation: the JSON
// twin of Behaviour, with the same CR/ER/NER injection semantics.
type JSONBehaviour struct {
	// Handler is the correct implementation; body is the request's JSON
	// payload, the returned value is marshalled as the response body.
	Handler func(ctx context.Context, body []byte) (interface{}, error)
	// Faulty optionally produces the operation's non-evident failure
	// mode. When nil, injected NER demands are served by extending the
	// correct response object with a marker key — detectable by
	// comparison, like any other content error.
	Faulty func(ctx context.Context, body []byte) (interface{}, error)
}

// jsonError is the wire error body a JSON release raises:
// {"error":{"message":...}} — what protocol/jsoncodec classifies as an
// evident failure.
type jsonError struct {
	Message string `json:"message"`
	// status is the HTTP status to respond with (500 when zero).
	status int
}

func (e *jsonError) Error() string { return e.Message }

// jsonClientError builds a 400 error body (malformed request).
func jsonClientError(msg string) *jsonError {
	return &jsonError{Message: msg, status: http.StatusBadRequest}
}

// maxJSONRequestBytes bounds request bodies, mirroring the SOAP
// runtime's message limit.
const maxJSONRequestBytes = 10 << 20

// JSONRelease hosts one release of a Web Service over REST/JSON: one
// operation per URL path, JSON request/response bodies, the same
// injectable CR/ER/NER fault model and ground-truth marker headers as
// the SOAP Release. Construct with NewJSON; serve via Handler.
type JSONRelease struct {
	*injector
	version    string
	behaviours map[string]JSONBehaviour
}

// NewJSON builds a JSON release runtime from behaviours keyed by
// operation name (the URL path segment that invokes them).
func NewJSON(version string, behaviours map[string]JSONBehaviour, plan FaultPlan) (*JSONRelease, error) {
	if version == "" {
		return nil, fmt.Errorf("%w: version required", ErrBadService)
	}
	if len(behaviours) == 0 {
		return nil, fmt.Errorf("%w: no operations", ErrBadService)
	}
	for name, b := range behaviours {
		if name == "" || strings.ContainsRune(name, '/') || b.Handler == nil {
			return nil, fmt.Errorf("%w: operation %q needs a name without '/' and a handler", ErrBadService, name)
		}
	}
	in, err := newInjector(plan)
	if err != nil {
		return nil, err
	}
	return &JSONRelease{injector: in, version: version, behaviours: behaviours}, nil
}

// Version returns the release version string.
func (r *JSONRelease) Version() string { return r.version }

// Handler returns the HTTP handler for this release: one JSON endpoint
// per operation at "/<operation>", and a liveness probe at "/healthz".
func (r *JSONRelease) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", r.serve)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(VersionHeader, r.version)
		_, _ = w.Write([]byte("ok"))
	})
	return mux
}

func (r *JSONRelease) serve(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		r.writeError(w, nil, &jsonError{Message: "json endpoint: POST only", status: http.StatusMethodNotAllowed})
		return
	}
	op := strings.Trim(req.URL.Path, "/")
	b, ok := r.behaviours[op]
	if !ok {
		r.writeError(w, nil, jsonClientError(fmt.Sprintf("unknown operation %q", op)))
		return
	}
	body, err := httpx.ReadBounded(req.Body, maxJSONRequestBytes)
	if err != nil {
		r.writeError(w, nil, jsonClientError(fmt.Sprintf("reading request: %v", err)))
		return
	}

	kind, err := r.draw(req.Context())
	if err != nil {
		return // the consumer gave up during the injected latency
	}
	hdr := w.Header()
	hdr.Set(VersionHeader, r.version)
	hdr.Set(oracle.InjectionHeader, kind.String())

	var resp interface{}
	switch kind {
	case relmodel.EvidentFailure:
		r.writeError(w, hdr, &jsonError{Message: fmt.Sprintf(
			"injected evident failure in %s (release %s)", op, r.version)})
		return
	case relmodel.NonEvidentFailure:
		if b.Faulty != nil {
			resp, err = b.Faulty(req.Context(), body)
		} else {
			resp, err = b.Handler(req.Context(), body)
			if err == nil {
				resp, err = corruptJSON(resp)
			}
		}
	default:
		resp, err = b.Handler(req.Context(), body)
	}
	if err != nil {
		je, ok := err.(*jsonError)
		if !ok {
			je = &jsonError{Message: err.Error()}
		}
		r.writeError(w, hdr, je)
		return
	}
	out, err := json.Marshal(resp)
	if err != nil {
		r.writeError(w, hdr, &jsonError{Message: fmt.Sprintf("encoding response: %v", err)})
		return
	}
	hdr.Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}

// writeError renders the {"error":{...}} body. hdr is passed when the
// marker headers were already set on it (nil otherwise).
func (r *JSONRelease) writeError(w http.ResponseWriter, hdr http.Header, je *jsonError) {
	if hdr == nil {
		hdr = w.Header()
		hdr.Set(VersionHeader, r.version)
	}
	hdr.Set("Content-Type", "application/json")
	status := je.status
	if status == 0 {
		status = http.StatusInternalServerError
	}
	w.WriteHeader(status)
	// A struct holding one string always marshals.
	body, _ := json.Marshal(struct {
		Error *jsonError `json:"error"`
	}{je})
	_, _ = w.Write(body)
}

// corruptJSON turns a correct response into a detectably wrong one by
// adding a marker key to the response object.
func corruptJSON(resp interface{}) (interface{}, error) {
	raw, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	var obj map[string]interface{}
	if err := json.Unmarshal(raw, &obj); err != nil {
		// Non-object responses corrupt by wrapping.
		return map[string]interface{}{"corrupted": "injected non-evident failure", "value": json.RawMessage(raw)}, nil
	}
	obj["corrupted"] = "injected non-evident failure"
	return obj, nil
}

// ---------------------------------------------------------------------------
// Demo service over JSON

// AddJSONRequest is the demo add request body.
type AddJSONRequest struct {
	A int `json:"a"`
	B int `json:"b"`
}

// AddJSONResponse carries the sum.
type AddJSONResponse struct {
	Sum int `json:"sum"`
}

// Operation1JSONRequest is the §6.2 example request body.
type Operation1JSONRequest struct {
	Param1 int    `json:"param1"`
	Param2 string `json:"param2"`
}

// Operation1JSONResponse is the §6.2 example response body.
type Operation1JSONResponse struct {
	Op1Result string `json:"Op1Result"`
}

// DemoJSONBehaviours returns the demo operations' REST/JSON
// implementations — the same logical operations and failure modes as
// DemoBehaviours, so cross-protocol tests can drive identical demands
// through both gateways.
func DemoJSONBehaviours() map[string]JSONBehaviour {
	return map[string]JSONBehaviour{
		"operation1": {
			Handler: func(ctx context.Context, body []byte) (interface{}, error) {
				var in Operation1JSONRequest
				if err := json.Unmarshal(body, &in); err != nil {
					return nil, jsonClientError(err.Error())
				}
				return Operation1JSONResponse{Op1Result: fmt.Sprintf("%s/%d", in.Param2, in.Param1*2)}, nil
			},
			Faulty: func(ctx context.Context, body []byte) (interface{}, error) {
				var in Operation1JSONRequest
				if err := json.Unmarshal(body, &in); err != nil {
					return nil, jsonClientError(err.Error())
				}
				// The same off-by-one as the SOAP demo's faulty variant.
				return Operation1JSONResponse{Op1Result: fmt.Sprintf("%s/%d", in.Param2, in.Param1*2+1)}, nil
			},
		},
		"add": {
			Handler: func(ctx context.Context, body []byte) (interface{}, error) {
				var in AddJSONRequest
				if err := json.Unmarshal(body, &in); err != nil {
					return nil, jsonClientError(err.Error())
				}
				return AddJSONResponse{Sum: in.A + in.B}, nil
			},
			Faulty: func(ctx context.Context, body []byte) (interface{}, error) {
				var in AddJSONRequest
				if err := json.Unmarshal(body, &in); err != nil {
					return nil, jsonClientError(err.Error())
				}
				return AddJSONResponse{Sum: in.A + in.B + 1}, nil
			},
		},
	}
}
