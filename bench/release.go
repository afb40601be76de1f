package main

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// release is a bench-owned stub of one release of the component Web
// Service: a table from request body to pre-rendered reply. It is a
// fixture, not code under test, so it does as little as a release can:
// one bounded body read, one map lookup, one write.
type release struct {
	lane        int // 0 old, 1 new; labels the release's spans
	contentType []string
	table       map[string]canned
	maxRequest  int
	calls       atomic.Int64
	wrong       atomic.Int64 // wrong variants served
	bufs        sync.Pool
	rec         *recorder // nil in an untraced deployment
}

type canned struct {
	reply  []byte
	length []string // the Content-Length header value
	wrong  bool
}

// newRelease renders the stub's table; serveWrong makes it the new
// release, which answers the fixtures' marked entries wrongly.
func newRelease(lane int, fx *fixtures, serveWrong bool, rec *recorder) *release {
	s := &release{
		lane:        lane,
		contentType: []string{fx.contentType},
		table:       make(map[string]canned, len(fx.demands)),
		rec:         rec,
	}
	for i := range fx.demands {
		d := &fx.demands[i]
		c := canned{reply: d.reply}
		if serveWrong && d.wrongReply != nil {
			c = canned{reply: d.wrongReply, wrong: true}
		}
		c.length = []string{strconv.Itoa(len(c.reply))}
		s.table[string(d.request)] = c
		s.maxRequest = max(s.maxRequest, len(d.request))
	}
	s.bufs.New = func() any { b := make([]byte, s.maxRequest+1); return &b }
	return s
}

func (s *release) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	span := s.rec.begin(spanReleaseHandler, s.lane, 0)
	defer s.rec.end(span)
	s.calls.Add(1)
	buf := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(buf)
	n, err := readFull(r.Body, *buf)
	if err != nil {
		http.Error(w, "stub release: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Indexing a map by string(bytes) does not allocate.
	c, ok := s.table[string((*buf)[:n])]
	if !ok {
		http.Error(w, "stub release: request not in the table", http.StatusBadRequest)
		return
	}
	if c.wrong {
		s.wrong.Add(1)
	}
	h := w.Header()
	h["Content-Type"] = s.contentType
	h["Content-Length"] = c.length
	_, _ = w.Write(c.reply) // a caller that went away shows as that caller's failed demand
}

var errBodyTooLarge = errors.New("body larger than the fixtures allow")

// readFull reads r to EOF into buf and reports how much it read; a body
// that does not fit is an error, so every read here is bounded by the
// fixtures' sizes.
func readFull(r io.Reader, buf []byte) (int, error) {
	n := 0
	for {
		if n == len(buf) {
			return n, errBodyTooLarge
		}
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}
