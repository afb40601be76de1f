// Package composite builds composite Web Services: services whose
// operations are implemented by invoking component WSs provided by third
// parties (Fig 1). The composite's "glue" code calls its components
// through named bindings that can be re-pointed online — at a concrete
// release, or at a managed-upgrade middleware (Fig 4) — without touching
// the glue.
//
// The package also wires the §7.2 upgrade-notification path: a composite
// can subscribe to the registry and react to a component's new release
// (typically by starting a managed upgrade rather than switching
// immediately).
package composite

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/registry"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wsdl"
)

// Errors reported by the composite runtime.
var (
	// ErrUnknownComponent reports a call through an unbound component.
	ErrUnknownComponent = errors.New("composite: unknown component")
	// ErrBadComposite reports an invalid composite definition.
	ErrBadComposite = errors.New("composite: bad definition")
)

// Deps gives glue code access to the composite's component bindings.
type Deps struct {
	svc *Service
}

// Call invokes an operation on a named component, decoding the response
// into out (which may be nil). Transient transport failures are retried
// per the binding's policy; SOAP faults are returned as *soap.Fault.
func (d *Deps) Call(ctx context.Context, component, operation string, in, out interface{}) error {
	c, retry, err := d.svc.binding(component)
	if err != nil {
		return err
	}
	body, err := soap.Envelope(in)
	if err != nil {
		return err
	}
	res, err := httpx.PostXML(ctx, c.HTTP, c.URL, soap.ContentType, body, retry)
	if err != nil {
		return fmt.Errorf("composite: component %s: %w", component, err)
	}
	defer res.BodyBuf.Release()
	if err := soap.ClassifyReply(res.Status, res.Body); err != nil {
		if soap.IsFault(err) {
			return err
		}
		return fmt.Errorf("composite: component %s: %w", component, err)
	}
	parsed, err := soap.Decode(res.Body)
	if err != nil {
		return fmt.Errorf("composite: component %s: %w", component, err)
	}
	if out == nil {
		return nil
	}
	return parsed.DecodeBody(out)
}

// Endpoint returns the URL a component is currently bound to.
func (d *Deps) Endpoint(component string) (string, error) {
	c, _, err := d.svc.binding(component)
	if err != nil {
		return "", err
	}
	return c.URL, nil
}

// GlueFunc implements one composite operation: it receives the decoded
// request context and the component bindings.
type GlueFunc func(ctx context.Context, req *soap.Request, deps *Deps) (interface{}, error)

// Service is a composite Web Service runtime.
type Service struct {
	contract wsdl.Contract
	srv      *soap.Server

	mu       sync.RWMutex
	bindings map[string]*binding
	onUpg    func(registry.Entry)
}

type binding struct {
	client *soap.Client
	retry  httpx.RetryPolicy
}

// New builds a composite service for the given contract. Every contract
// operation must receive glue via Handle before serving.
func New(contract wsdl.Contract) (*Service, error) {
	if err := contract.Validate(); err != nil {
		return nil, fmt.Errorf("composite: %w", err)
	}
	return &Service{
		contract: contract,
		srv:      soap.NewServer(),
		bindings: make(map[string]*binding),
	}, nil
}

// Contract returns the composite's own contract.
func (s *Service) Contract() wsdl.Contract { return s.contract }

// Bind points a component name at a URL. Rebinding an existing name
// replaces the target online — the glue never notices.
func (s *Service) Bind(name, url string, opts ...BindOption) error {
	if name == "" || url == "" {
		return fmt.Errorf("%w: binding needs name and url", ErrBadComposite)
	}
	b := &binding{
		client: &soap.Client{URL: url, HTTP: &http.Client{Timeout: 5 * time.Second}},
		retry:  httpx.DefaultRetry,
	}
	for _, o := range opts {
		o(b)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bindings[name] = b
	return nil
}

// BindOption configures a component binding.
type BindOption func(*binding)

// WithHTTP overrides the binding's HTTP client.
func WithHTTP(c *http.Client) BindOption {
	return func(b *binding) { b.client.HTTP = c }
}

// WithRetry overrides the transient-failure retry policy.
func WithRetry(p httpx.RetryPolicy) BindOption {
	return func(b *binding) { b.retry = p }
}

func (s *Service) binding(name string) (*soap.Client, httpx.RetryPolicy, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.bindings[name]
	if !ok {
		return nil, httpx.RetryPolicy{}, fmt.Errorf("%w: %q", ErrUnknownComponent, name)
	}
	return b.client, b.retry, nil
}

// Components lists the bound component names, sorted.
func (s *Service) Components() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.bindings))
	for n := range s.bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handle installs glue for one contract operation.
func (s *Service) Handle(operation string, glue GlueFunc) error {
	op, ok := s.contract.Operation(operation)
	if !ok {
		return fmt.Errorf("%w: operation %q not in contract", ErrBadComposite, operation)
	}
	s.srv.Handle(op.RequestElement(), func(ctx context.Context, req *soap.Request) (interface{}, error) {
		return glue(ctx, req, &Deps{svc: s})
	})
	return nil
}

// OnUpgrade registers the reaction to a component upgrade notification
// delivered through NotificationHandler.
func (s *Service) OnUpgrade(fn func(registry.Entry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onUpg = fn
}

// NotificationHandler accepts the registry's §7.2 callback POSTs (the
// new release's entry as XML) and forwards them to the OnUpgrade hook.
func (s *Service) NotificationHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		e, err := registry.DecodeEntry(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.RLock()
		fn := s.onUpg
		s.mu.RUnlock()
		if fn != nil {
			fn(e)
		}
		w.WriteHeader(http.StatusOK)
	})
}

// Handler returns the composite's HTTP surface: SOAP at "/", WSDL at
// "/wsdl", upgrade notifications at "/notify", liveness at "/healthz".
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.srv)
	mux.Handle("/notify", s.NotificationHandler())
	mux.HandleFunc("/wsdl", func(w http.ResponseWriter, r *http.Request) {
		wsdl.Serve(w, r, s.contract)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	return mux
}

// ResolveNewest binds a component to the newest published release of a
// service found in the registry — the discovery path of Fig 1.
func (s *Service) ResolveNewest(ctx context.Context, reg *registry.Client, component, serviceName string, opts ...BindOption) error {
	entries, err := reg.Find(ctx, serviceName)
	if err != nil {
		return fmt.Errorf("composite: resolving %s: %w", serviceName, err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("%w: no releases of %s", registry.ErrNotFound, serviceName)
	}
	return s.Bind(component, entries[0].URL, opts...)
}
