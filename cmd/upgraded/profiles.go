package main

import (
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"wsupgrade/internal/fleet"
)

// profilesPath is where a fleet started with an admin token serves the
// process's profiles, beside the fleet's /fleet/ admin API.
const profilesPath = "/fleet/debug/pprof/"

// withProfiles serves profilesPath, on every host, behind the fleet's
// admin token (fleet.Authorized), and everything else through the fleet.
// The profiles live here and not in the fleet package because linking
// runtime/pprof keeps the runtime's heap sampling on, which the linker
// otherwise turns off: every program that links the library would pay
// for it, about 1 MB of resident memory.
func withProfiles(f *fleet.Fleet) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, profilesPath) {
			f.ServeHTTP(w, r)
			return
		}
		if !f.Authorized(r) {
			http.Error(w, "upgraded: admin token required", http.StatusUnauthorized)
			return
		}
		serveProfiles(w, r)
	})
}

// serveProfiles serves the running process's profiles for go tool pprof:
// profilesPath lists them, profile?seconds=N (default 30) is a CPU
// profile, and any other name is that runtime/pprof profile, in the
// protobuf form or, with ?debug=1 or 2, as text. It uses runtime/pprof
// rather than net/http/pprof, whose import registers handlers on
// http.DefaultServeMux.
func serveProfiles(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, profilesPath)
	switch name {
	case "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "profile?seconds=30\tCPU\n")
		for _, p := range pprof.Profiles() {
			io.WriteString(w, p.Name()+"?debug=1\t"+strconv.Itoa(p.Count())+"\n")
		}
		return
	case "profile":
		serveCPUProfile(w, r)
		return
	}
	p := pprof.Lookup(name)
	if p == nil {
		http.Error(w, "upgraded: unknown profile "+strconv.Quote(name), http.StatusNotFound)
		return
	}
	debug, _ := strconv.Atoi(r.FormValue("debug")) // absent or malformed: 0, the protobuf form
	if debug == 0 {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	_ = p.WriteTo(w, debug) // it fails only when the caller has gone
}

// serveCPUProfile profiles the CPU for the requested seconds, or until
// the caller goes away; one CPU profile runs at a time.
func serveCPUProfile(w http.ResponseWriter, r *http.Request) {
	sec, err := strconv.Atoi(r.FormValue("seconds"))
	if err != nil || sec <= 0 {
		sec = 30
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := pprof.StartCPUProfile(w); err != nil {
		http.Error(w, "upgraded: "+err.Error(), http.StatusConflict)
		return
	}
	t := time.NewTimer(time.Duration(sec) * time.Second)
	select {
	case <-t.C:
	case <-r.Context().Done():
		t.Stop()
	}
	pprof.StopCPUProfile()
}
