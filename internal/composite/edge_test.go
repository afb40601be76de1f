package composite

import (
	"context"
	"crypto/tls"
	"encoding/xml"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
)

// classified is one reply's meaning as a SOAP client reads it: the
// decoded payload, a fault, or an unclassifiable status.
type classified struct {
	sum    int    // the payload's <sum>, when it is a reply
	fault  string // the fault's code and string, when it is one
	status int    // the StatusError, when it is one
}

// classify reduces an error-or-payload outcome to classified. A fault
// must arrive as a *soap.Fault; anything else must carry a
// protocol.StatusError.
func classify(t *testing.T, path string, payload []byte, err error) classified {
	t.Helper()
	var f *soap.Fault
	var se protocol.StatusError
	switch {
	case errors.As(err, &f):
		return classified{fault: f.Code + " " + f.String}
	case errors.As(err, &se):
		return classified{status: int(se)}
	case err != nil:
		t.Fatalf("%s: unclassified error %v", path, err)
	}
	var out service.AddResponse
	if err := xml.Unmarshal(payload, &out); err != nil {
		t.Fatalf("%s: payload %q: %v", path, payload, err)
	}
	return classified{sum: out.Sum}
}

// Every SOAP client in the repository reads a reply's status the one way
// soap.ClassifyReply says: the mediator's codec, the plain client and a
// composite's component call map each row to the same payload, fault or
// status error.
func TestSOAPReplyClassifiedOnce(t *testing.T) {
	payload := `<addResponse><sum>7</sum></addResponse>`
	rows := []struct {
		name   string
		status int
		body   string
		want   classified
	}{
		{"200", http.StatusOK, string(soap.EnvelopeRaw([]byte(payload))), classified{sum: 7}},
		{"500-fault", http.StatusInternalServerError, string(soap.FaultEnvelope(soap.ServerFault("boom"))),
			classified{fault: "soap:Server boom"}},
		{"500-no-fault", http.StatusInternalServerError, string(soap.EnvelopeRaw([]byte(payload))),
			classified{status: 500}},
		{"503", http.StatusServiceUnavailable, "busy", classified{status: 503}},
		{"204", http.StatusNoContent, "", classified{status: 204}},
		{"500-malformed", http.StatusInternalServerError, "<soap:Envelope><soap:Body>", classified{status: 500}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", soap.ContentType)
				w.WriteHeader(row.status)
				_, _ = w.Write([]byte(row.body))
			}))
			defer ts.Close()

			body, _, err := soapcodec.Default.DecodeReply(row.status, []byte(row.body))
			if got := classify(t, "DecodeReply", body, err); got != row.want {
				t.Errorf("DecodeReply: %+v, want %+v", got, row.want)
			}

			env, err := (&soap.Client{URL: ts.URL}).CallRaw(context.Background(), "add", []byte(row.body))
			if err == nil {
				parsed, perr := soap.Decode(env)
				if perr != nil {
					t.Fatalf("CallRaw returned an unreadable envelope: %v", perr)
				}
				body = parsed.BodyXML
			}
			if got := classify(t, "CallRaw", body, err); got != row.want {
				t.Errorf("CallRaw: %+v, want %+v", got, row.want)
			}

			svc, err := New(compositeContract())
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Bind("ws1", ts.URL); err != nil {
				t.Fatal(err)
			}
			var out service.AddResponse
			err = (&Deps{svc: svc}).Call(context.Background(), "ws1", "add", service.AddRequest{A: 3, B: 4}, &out)
			got := classified{sum: out.Sum}
			if err != nil {
				got = classify(t, "Deps.Call", nil, err)
			}
			if got != row.want {
				t.Errorf("Deps.Call: %+v, want %+v", got, row.want)
			}
		})
	}
}

// A service release's and a composite's /wsdl advertise the endpoint
// under the scheme the consumer reached them with: behind TLS or a
// TLS-terminating proxy, an http:// address is one the consumer cannot
// dial.
func TestWSDLAdvertisesRequestScheme(t *testing.T) {
	rel, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := New(compositeContract())
	if err != nil {
		t.Fatal(err)
	}
	handlers := map[string]http.Handler{"release": rel.Handler(), "composite": comp.Handler()}
	arrivals := map[string]func(*http.Request){
		"plain":             func(*http.Request) {},
		"tls":               func(r *http.Request) { r.TLS = &tls.ConnectionState{} },
		"x-forwarded-proto": func(r *http.Request) { r.Header.Set("X-Forwarded-Proto", "https") },
	}
	for name, h := range handlers {
		for via, arrive := range arrivals {
			req := httptest.NewRequest(http.MethodGet, "http://svc.example/wsdl", nil)
			arrive(req)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s via %s: HTTP %d", name, via, rec.Code)
			}
			want := `location="https://svc.example/"`
			if via == "plain" {
				want = `location="http://svc.example/"`
			}
			if !strings.Contains(rec.Body.String(), want) {
				t.Errorf("%s via %s: no %s in\n%s", name, via, want, rec.Body.String())
			}
		}
	}
}
