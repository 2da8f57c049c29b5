// Command campd is the campaign farm daemon: a long-lived service
// that accepts fuzzing-campaign submissions over an HTTP/JSON API,
// queues them durably on disk, runs them on the sharded campaign
// orchestrator with crash-safe checkpoints, and streams round reports
// to watching clients.
//
//	campd -addr 127.0.0.1:8700 -data ./campd-data -workers 2
//
// Submit and follow jobs with the fuzz-bench client:
//
//	fuzz-bench submit -addr 127.0.0.1:8700 -tests 2000 -watch
//	fuzz-bench status -addr 127.0.0.1:8700
//	fuzz-bench watch  -addr 127.0.0.1:8700 job-1
//
// The daemon is crash-safe by construction: every submission is
// fsynced to the queue log before it is acknowledged, every running
// job writes an atomic checkpoint at its configured round cadence, and
// a restarted daemon re-queues unfinished jobs and resumes them from
// their checkpoints bit-identically — the completed campaign is
// indistinguishable from one whose daemon never died. SIGINT/SIGTERM
// stop gracefully: running jobs finish their current round, checkpoint
// and park. kill -9 at any instant costs at most the rounds since the
// last checkpoint, re-simulated on restart, never diverged.
//
// The bound address is written to <data>/campd.addr (useful with
// -addr :0, and how the end-to-end tests find a free port). The same
// listener serves the farm's metrics registry at /metrics (its one
// URL), Go's own expvars at /debug/vars and the profiles at
// /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"chatfuzz/internal/atomicio"
	"chatfuzz/internal/farm"
	"chatfuzz/internal/telemetry"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8700", "HTTP API listen address (:0 picks a free port, reported in <data>/campd.addr)")
		dir     = flag.String("data", "campd-data", "data directory: queue log and job checkpoints (created if absent)")
		workers = flag.Int("workers", 1, "jobs run concurrently (execution-only: affects wall-clock, never a job's bits)")
	)
	flag.Parse()

	s, err := farm.Open(farm.Config{
		Dir:     *dir,
		Addr:    *addr,
		Workers: *workers,
		Metrics: telemetry.NewRegistry(),
		Log:     os.Stderr,
	})
	if err != nil {
		log.Fatalf("campd: %v", err)
	}
	if err := atomicio.WriteFileBytes(filepath.Join(*dir, "campd.addr"), []byte(s.Addr()+"\n")); err != nil {
		log.Fatalf("campd: %v", err)
	}
	fmt.Printf("campd: serving on http://%s, data in %s\n", s.Addr(), *dir)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	// A second signal kills immediately — which is safe: that is the
	// crash path the checkpoints exist for.
	signal.Stop(ch)
	fmt.Fprintf(os.Stderr, "campd: %v: finishing current rounds, checkpointing...\n", sig)
	if err := s.Stop(); err != nil {
		log.Fatalf("campd: shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "campd: stopped; unfinished jobs resume on the next start")
}
