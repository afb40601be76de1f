package core

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/lifecycle"
)

// engineState is the complete dispatch-relevant configuration, swapped
// atomically as one immutable value. The request hot path loads it with
// a single atomic pointer read and never takes the engine mutex; writers
// (the management subsystem: SetPhase, SetMode, SetTimeout, AddRelease,
// RemoveRelease, CheckHealth, the automatic switch policy) serialize on
// Engine.mu, copy the current state, and publish the successor.
//
// An *engineState must never be mutated after publication: releases and
// down are owned by the state value and shared by every reader.
type engineState struct {
	releases   []Endpoint
	down       map[string]bool // releases marked unavailable by health checks; nil when none
	phase      Phase
	mode       Mode
	quorum     int
	timeout    time.Duration
	switchedAt int // joint demands when auto-switch fired; 0 = not yet

	// The fields below are derived at publication (publish), so the hot
	// path neither re-selects targets nor re-boxes an adjudicator.
	//
	// targets is the phase's fan-out set, less releases marked down.
	targets []Endpoint
	// deliver is the phase-appropriate delivery rule.
	deliver adjudicate.Adjudicator
	// winnerHdr maps each release version to its precomputed
	// X-Wsupgrade-Winner header value slice, so the response path does
	// not allocate a fresh []string per request. The slices are shared:
	// response writers must not mutate them (net/http and httptest only
	// read or clone).
	winnerHdr map[string][]string
}

// clone returns a deep copy safe to mutate before publication.
func (s *engineState) clone() *engineState {
	c := *s
	c.releases = append([]Endpoint(nil), s.releases...)
	c.down = maps.Clone(s.down)
	return &c
}

// phaseServes is the one rule for which release a phase serves (§3.1:
// the old release stays authoritative until the switch): the old one in
// old-only and observation, the new one in new-only, and in parallel
// (both false) either, as the adjudicator picks.
func phaseServes(p Phase) (oldest, newest bool) {
	return p == PhaseOldOnly || p == PhaseObservation, p == PhaseNewOnly
}

// deliveryRule is the phase's delivery authority over adj.
func deliveryRule(p Phase, releases []Endpoint, adj adjudicate.Adjudicator) adjudicate.Adjudicator {
	switch oldest, newest := phaseServes(p); {
	case oldest:
		return adjudicate.Preferred{Release: releases[0].Version, Fallback: adj}
	case newest:
		return adjudicate.Preferred{Release: releases[len(releases)-1].Version, Fallback: adj}
	}
	return adj
}

// servedConfidence is the confidence in what a phase serves, given the
// old and the new release's: one of them, or conservatively the smaller.
func servedConfidence(p Phase, confOld, confNew float64) float64 {
	switch oldest, newest := phaseServes(p); {
	case oldest:
		return confOld
	case newest:
		return confNew
	}
	return math.Min(confOld, confNew)
}

// phaseTargets is the fan-out set of a state: every release, except
// that a phase one release can run (old-only, new-only) invokes only the
// one it serves — less the releases health checks marked down, unless
// that would leave none, in which case the calls proceed and fail
// honestly (§4.1's recovery handling).
func phaseTargets(s *engineState) []Endpoint {
	targets := s.releases
	if lifecycle.Validate(s.phase, 1) == nil {
		if oldest, _ := phaseServes(s.phase); oldest {
			targets = targets[:1:1]
		} else {
			targets = targets[len(targets)-1:]
		}
	}
	if len(s.down) == 0 {
		return targets
	}
	up := targets[:0:0]
	for _, t := range targets {
		if !s.down[t.Version] {
			up = append(up, t)
		}
	}
	if len(up) == 0 {
		return targets
	}
	return up
}

// winnerHeaders precomputes the per-release winner-header values.
func winnerHeaders(releases []Endpoint) map[string][]string {
	m := make(map[string][]string, len(releases))
	for _, r := range releases {
		m[r.Version] = []string{r.Version}
	}
	return m
}

// publish derives a state's precomputed fields and makes it current.
// Callers hold e.mu, or are New before the engine is shared.
func (e *Engine) publish(s *engineState) {
	// Interning first: the targets alias (or copy) the stamped releases.
	e.internReleases(s.releases)
	s.targets = phaseTargets(s)
	s.deliver = deliveryRule(s.phase, s.releases, e.adjudic)
	s.winnerHdr = winnerHeaders(s.releases)
	e.state.Store(s)
}

// internReleases stamps each release with the monitor's interned dense
// index (threaded through dispatch as Endpoint.MonRef), so the outcome
// hook aggregates observations by slice index instead of name lookups.
// Interning is idempotent and monotonic; this runs on the management
// path only, at state publication.
func (e *Engine) internReleases(releases []Endpoint) {
	for i := range releases {
		releases[i].MonRef = int32(e.mon.Intern(releases[i].Version))
	}
}

// updateState publishes a successor state built by mutate, serialized
// against every other writer. mutate receives a private clone; returning
// an error discards it without publication. A phase change fires the
// transition hooks after publication.
func (e *Engine) updateState(cause lifecycle.Cause, mutate func(*engineState) error) error {
	e.mu.Lock()
	cur := e.state.Load()
	next := cur.clone()
	if err := mutate(next); err != nil {
		e.mu.Unlock()
		return err
	}
	e.publish(next)
	from, to := cur.phase, next.phase
	demands := 0
	if cause == lifecycle.CausePolicy {
		demands = next.switchedAt
	}
	e.mu.Unlock()
	if from != to {
		e.hooks.Fire(lifecycle.Transition{From: from, To: to, Cause: cause, Demands: demands})
	}
	e.fireReleaseChanges(cur.releases, next.releases)
	return nil
}

// indexOf returns the position of the release version in set, or -1.
func indexOf(set []Endpoint, version string) int {
	return slices.IndexFunc(set, func(r Endpoint) bool { return r.Version == version })
}

// checkRelease validates a release joining the deployed set.
func checkRelease(set []Endpoint, ep Endpoint) error {
	if ep.Version == "" || ep.URL == "" {
		return fmt.Errorf("%w: release needs version and URL: %+v", ErrBadConfig, ep)
	}
	if indexOf(set, ep.Version) >= 0 {
		return fmt.Errorf("%w: duplicate release %q", ErrBadConfig, ep.Version)
	}
	return nil
}

// checkMode validates a fan-out mode for the deployed release count and
// returns the quorum it runs with: ModeDynamic's, defaulted to 1 and
// bounded by the releases; any other mode's unchanged.
func checkMode(mode Mode, quorum, releases int) (int, error) {
	switch {
	case mode == ModeDynamic:
		if quorum == 0 {
			quorum = 1
		}
		if quorum < 1 || quorum > releases {
			return 0, fmt.Errorf("%w: quorum %d with %d releases", ErrBadConfig, quorum, releases)
		}
	case mode.Known():
	default:
		return 0, fmt.Errorf("%w: mode %v", ErrBadConfig, mode)
	}
	return quorum, nil
}

// OnTransition registers an observer of lifecycle transitions (manual,
// policy-driven, and topology-forced alike). Hooks fire after the
// transition has been published, outside the engine's write lock; they
// must not block and must not call the engine's own mutators.
func (e *Engine) OnTransition(fn func(lifecycle.Transition)) {
	e.hooks.Add(fn)
}

// Phase returns the current lifecycle phase.
func (e *Engine) Phase() Phase {
	return e.state.Load().phase
}

// SetPhase transitions the lifecycle manually. The transition is
// validated against the §4.1 rules (lifecycle.CanTransition: forward
// movement with skips, abort to OldOnly, restart out of NewOnly) and
// the deployed release count; an illegal transition is rejected with an
// error matching both ErrBadPhase and lifecycle.ErrIllegalTransition.
func (e *Engine) SetPhase(p Phase) error {
	return e.updateState(lifecycle.CauseManual, func(s *engineState) error {
		if err := lifecycle.CanTransition(s.phase, p); err != nil {
			return err
		}
		if err := lifecycle.Validate(p, len(s.releases)); err != nil {
			return err
		}
		s.phase = p
		return nil
	})
}

// SwitchedAt reports the joint-demand count at which the automatic policy
// switched to the new release (0, false if it has not).
func (e *Engine) SwitchedAt() (int, bool) {
	at := e.state.Load().switchedAt
	return at, at > 0
}

// Releases returns the deployed releases, oldest first.
func (e *Engine) Releases() []Endpoint {
	return append([]Endpoint(nil), e.state.Load().releases...)
}

// AddRelease deploys a release online; it becomes the newest. §3.2: a
// new release is deployed but unused until it has earned confidence,
// and PhaseNewOnly serves the newest release alone, so adding to a
// switched engine restarts the campaign in PhaseObservation — in the
// same published state, so no demand ever reaches the newcomer alone.
func (e *Engine) AddRelease(ep Endpoint) error {
	return e.updateState(lifecycle.CauseTopology, func(s *engineState) error {
		if err := checkRelease(s.releases, ep); err != nil {
			return err
		}
		s.releases = append(s.releases, ep)
		if s.phase == PhaseNewOnly {
			s.phase = PhaseObservation
		}
		return nil
	})
}

// RemoveRelease phases a release out online. The last release cannot be
// removed, and removing below two releases forces PhaseNewOnly.
func (e *Engine) RemoveRelease(version string) error {
	return e.updateState(lifecycle.CauseTopology, func(s *engineState) error {
		idx := indexOf(s.releases, version)
		if idx < 0 {
			return fmt.Errorf("%w: %q", ErrUnknownRelease, version)
		}
		if len(s.releases) == 1 {
			return fmt.Errorf("%w: cannot remove the only release", ErrBadPhase)
		}
		s.releases = append(s.releases[:idx], s.releases[idx+1:]...)
		if lifecycle.Validate(s.phase, len(s.releases)) != nil {
			s.phase = PhaseNewOnly
		}
		return nil
	})
}

// Mode returns the current fan-out mode.
func (e *Engine) Mode() Mode {
	return e.state.Load().mode
}

// SetMode reconfigures the fan-out mode online — §4.2's "the number of
// responses and the timeout can be changed dynamically". quorum applies
// to ModeDynamic and is ignored otherwise.
func (e *Engine) SetMode(mode Mode, quorum int) error {
	return e.updateState(lifecycle.CauseManual, func(s *engineState) error {
		q, err := checkMode(mode, quorum, len(s.releases))
		if err != nil {
			return err
		}
		s.mode = mode
		if mode == ModeDynamic {
			s.quorum = q
		}
		return nil
	})
}

// Timeout returns the current fan-out deadline.
func (e *Engine) Timeout() time.Duration {
	return e.state.Load().timeout
}

// SetTimeout reconfigures the fan-out deadline online.
func (e *Engine) SetTimeout(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("%w: timeout %v", ErrBadConfig, d)
	}
	return e.updateState(lifecycle.CauseManual, func(s *engineState) error {
		s.timeout = d
		return nil
	})
}

// Health reports one release's probe outcome.
type Health struct {
	Release string
	URL     string
	Up      bool
	Err     error
}

// CheckHealth probes every deployed release's /healthz endpoint, each
// within the release timeout, updates the engine's availability marks
// (a release marked down is skipped by fan-outs until it recovers), and
// returns the probe results. A round cut short by ctx marks nothing.
func (e *Engine) CheckHealth(ctx context.Context) []Health {
	releases := e.state.Load().releases
	results := make([]Health, len(releases))
	var wg sync.WaitGroup
	for i, rel := range releases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = e.probe(ctx, rel)
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return results
	}

	_ = e.updateState(lifecycle.CauseTopology, func(s *engineState) error {
		for _, h := range results {
			if h.Up {
				delete(s.down, h.Release)
				continue
			}
			if s.down == nil {
				s.down = make(map[string]bool)
			}
			s.down[h.Release] = true
		}
		return nil
	})
	return results
}

func (e *Engine) probe(ctx context.Context, rel Endpoint) Health {
	h := Health{Release: rel.Version, URL: rel.URL}
	ctx, cancel := context.WithTimeout(ctx, e.Timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rel.URL+"/healthz", nil)
	if err != nil {
		h.Err = err
		return h
	}
	resp, err := e.client.Do(req)
	if err != nil {
		h.Err = err
		return h
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		h.Err = fmt.Errorf("core: health probe of %s: HTTP %d", rel.Version, resp.StatusCode)
		return h
	}
	h.Up = true
	return h
}

// Down reports whether a release is currently marked unavailable.
func (e *Engine) Down(version string) bool {
	return e.state.Load().down[version]
}
