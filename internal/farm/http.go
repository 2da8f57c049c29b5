package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"

	"chatfuzz/internal/telemetry"
)

// The HTTP/JSON API, one resource: jobs.
//
//	POST /api/v1/jobs                   submit a JobSpec  -> JobStatus
//	GET  /api/v1/jobs                   list              -> []JobStatus
//	GET  /api/v1/jobs/{id}              status            -> JobStatus
//	GET  /api/v1/jobs/{id}/rounds?from=N  stream RoundReports as JSONL
//	                                    until the job is terminal
//	GET  /api/v1/jobs/{id}/trajectory   full history      -> []RoundReport
//	GET  /api/v1/jobs/{id}/checkpoint   the newest durable checkpoint's bytes
//	GET  /healthz                       liveness
//
// With Config.Metrics set, the telemetry endpoint of the campaign CLI
// is mounted too: /metrics (JSON snapshot), /debug/vars, /debug/pprof.

func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/rounds", s.handleRounds)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trajectory", s.handleTrajectory)
	mux.HandleFunc("GET /api/v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.Metrics != nil {
		t := telemetry.Handler(s.cfg.Metrics)
		mux.Handle("/metrics", t)
		mux.Handle("/debug/", t)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Best-effort: an encode error here is the client connection's.
	_ = enc.Encode(v)
}

// maxSpecBytes bounds a submitted body; a JobSpec is a few hundred
// bytes.
const maxSpecBytes = 1 << 20

// handleSubmit takes exactly one JSON JobSpec, which is an object: a
// body that carries anything but whitespace after it is refused, as is
// one over maxSpecBytes and any other JSON value (null, an array, a
// number, a string), which would decode to the zero spec or fail late.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err := dec.Decode(&raw); err != nil {
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), http.StatusBadRequest)
		return
	}
	if raw[0] != '{' {
		http.Error(w, "bad job spec: not a JSON object", http.StatusBadRequest)
		return
	}
	var spec JobSpec
	strict := json.NewDecoder(bytes.NewReader(raw))
	strict.DisallowUnknownFields()
	if err := strict.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), http.StatusBadRequest)
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		http.Error(w, "bad job spec: more than one JSON value, or over 1 MiB", http.StatusBadRequest)
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// handleRounds streams round reports as JSON Lines from index `from`
// (default 0), flushing each line, until the job reaches a terminal
// state — the watch feed. A client reconnecting after a daemon
// restart passes the index it last saw; history before it was rebuilt
// from the checkpoint, so the stream is continuous across crashes.
func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		var err error
		if from, err = strconv.Atoi(q); err != nil || from < 0 {
			http.Error(w, "bad from index", http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Wake the cond-waiters below when the client goes away, so the
	// handler can notice ctx.Done and return instead of blocking on a
	// quiet job forever.
	stopWake := context.AfterFunc(r.Context(), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stopWake()

	for {
		reps, terminal, ok := s.waitRounds(r.Context(), id, from)
		if !ok {
			return
		}
		for _, rep := range reps {
			if err := enc.Encode(rep); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		from += len(reps)
		if terminal {
			return
		}
	}
}

// waitRounds blocks until the job has reports past `from`, is
// terminal, the server stops, or the client disconnects. ok is false
// when the caller should give up (disconnect or server stop).
func (s *Server) waitRounds(ctx context.Context, id string, from int) (reps []RoundReport, terminal, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		reps, terminal, ok = s.roundsLocked(id, from)
		if !ok || len(reps) > 0 || terminal {
			return reps, terminal, ok
		}
		if s.stopping || ctx.Err() != nil {
			return nil, false, false
		}
		s.cond.Wait()
	}
}

func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	reps, ok := s.Rounds(r.PathValue("id"), 0)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, reps)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	b, _, err := s.loadCheckpoint(j, id)
	if errors.Is(err, fs.ErrNotExist) {
		http.Error(w, "no checkpoint yet", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}
