package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// The HTTP endpoint for long soak runs: the registry's JSON snapshot
// at /metrics (its one URL), Go's own expvars (memstats, cmdline) at
// /debug/vars, and the stock pprof handlers at /debug/pprof/ for
// profiling a live fleet. Serving is strictly read-only observation;
// nothing a client does can reach scheduling or checkpointed state.

// Handler returns the telemetry endpoint's routes for the registry.
func Handler(g *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Best-effort: the encoder's error is the client connection's.
		_ = enc.Encode(g.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve serves Handler on addr (":0" picks a free port). It returns
// the bound address and a closer that shuts the listener down.
func Serve(addr string, g *Registry) (boundAddr string, closer func() error, err error) {
	if g == nil {
		return "", nil, fmt.Errorf("telemetry: Serve needs a registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(g)}
	go func() {
		// Serve returns ErrServerClosed on Close; other errors mean the
		// listener died, which the soak run tolerates (telemetry only).
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), srv.Close, nil
}
