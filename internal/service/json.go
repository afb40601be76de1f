package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"wsupgrade/internal/httpx"
)

// jsonError is the wire error body the JSON face raises:
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

// serveJSON is the release's REST/JSON face: a POST to "/<operation>"
// with a JSON body, answered with the response value as JSON or an
// {"error":...} body.
func (r *Release) serveJSON(w http.ResponseWriter, req *http.Request) {
	w.Header().Set(VersionHeader, r.contract.Version)
	if req.Method != http.MethodPost {
		writeJSONError(w, &jsonError{Message: "json endpoint: POST only", status: http.StatusMethodNotAllowed})
		return
	}
	op := strings.Trim(req.URL.Path, "/")
	b, ok := r.behaviours[op]
	if !ok {
		writeJSONError(w, jsonClientError(fmt.Sprintf("unknown operation %q", op)))
		return
	}
	body, err := httpx.ReadBounded(req.Body, maxJSONRequestBytes)
	if err != nil {
		writeJSONError(w, jsonClientError(fmt.Sprintf("reading request: %v", err)))
		return
	}
	decode := func(v any) error {
		if err := json.Unmarshal(body, v); err != nil {
			return jsonClientError(err.Error())
		}
		return nil
	}
	resp, err := r.answer(req.Context(), w.Header(), op, b, decode, corruptJSON)
	var out []byte
	if err == nil {
		if out, err = json.Marshal(resp); err != nil {
			err = fmt.Errorf("encoding response: %w", err)
		}
	}
	if err != nil {
		writeJSONError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}

// writeJSONError renders err as an {"error":{...}} body, with its
// jsonError's status or else 500.
func writeJSONError(w http.ResponseWriter, err error) {
	var je *jsonError
	if !errors.As(err, &je) {
		je = &jsonError{Message: err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
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
func corruptJSON(resp any) (any, error) {
	raw, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		// Non-object responses corrupt by wrapping.
		return map[string]any{"corrupted": "injected non-evident failure", "value": json.RawMessage(raw)}, nil
	}
	obj["corrupted"] = "injected non-evident failure"
	return obj, nil
}
