package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"chatfuzz/internal/atomicio"
	"chatfuzz/internal/campaign"
	"chatfuzz/internal/telemetry"
)

// Config parameterises a farm server.
type Config struct {
	// Dir is the farm's data directory: the queue log lives at
	// Dir/queue.log, each job's checkpoint slot store at
	// Dir/jobs/<id>/ckpt.{0,1} (one of the two once the job is done).
	// Created if absent.
	Dir string
	// Addr, when non-empty, serves the HTTP API on this address
	// (":0" picks a free port; Server.Addr reports it). Empty runs
	// the farm as a library with no listener (tests, embedding).
	Addr string
	// Workers bounds concurrently running jobs (default 1). Execution
	// detail: it affects wall-clock only, never a job's bits.
	Workers int
	// Metrics, when non-nil, receives farm gauges (jobs by state,
	// rounds completed) and is mounted at /metrics, /debug/vars and
	// /debug/pprof on the API listener — the same telemetry endpoint
	// the campaign CLI serves.
	Metrics *telemetry.Registry
	// Log receives daemon progress lines (default: discarded).
	Log io.Writer
}

// walRecord is one queue-log entry. Op submit carries Spec; op done
// carries Summary; op fail carries Err.
type walRecord struct {
	Op      string      `json:"op"`
	ID      string      `json:"id"`
	Spec    *JobSpec    `json:"spec,omitempty"`
	Summary *JobSummary `json:"summary,omitempty"`
	Err     string      `json:"err,omitempty"`
}

// job is the in-memory job record.
type job struct {
	status JobStatus
	// rounds is the full per-round report history, rebuilt from the
	// checkpoint's merged trajectory when replay re-queues the job, or
	// when a job that finished before a restart is first read
	// (roundsLocked).
	rounds []RoundReport
	// ckpt orders reads of the job's slot store (loadCheckpoint) after
	// its runner's commits: a slot is overwritten in place, so a read
	// racing two commits could find both slots mid-write.
	ckpt sync.RWMutex
}

// Server is the campaign farm: a durable job queue, a worker pool
// running jobs on campaign orchestrators, and the HTTP API.
type Server struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond // broadcast on queue pushes and job progress
	wal  *wal
	jobs map[string]*job
	// order is submission order (the queue log's replay order); queue
	// is the pending sub-sequence, popped FIFO.
	order  []string
	queue  []string
	nextID int
	// stopping stops workers at the next round barrier (graceful:
	// runners checkpoint before returning). killed additionally
	// abandons the terminal WAL record — the in-process crash
	// simulation used by recovery tests.
	stopping bool
	killed   bool

	ln  net.Listener
	srv *http.Server
	wg  sync.WaitGroup
}

// Open replays the queue log in cfg.Dir, re-queues every job that has
// no terminal record (in submission order), starts the worker pool,
// and serves the API when cfg.Addr is set.
func Open(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("farm: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("farm: data dir: %w", err)
	}
	w, recs, err := openWAL(filepath.Join(cfg.Dir, "queue.log"))
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, wal: w, jobs: map[string]*job{}}
	s.cond = sync.NewCond(&s.mu)
	if err := s.replay(recs); err != nil {
		w.Close()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.Addr != "" {
		ln, err := net.Listen("tcp", cfg.Addr)
		if err != nil {
			s.shutdownWorkers()
			w.Close()
			return nil, fmt.Errorf("farm: listen %s: %w", cfg.Addr, err)
		}
		s.ln = ln
		s.srv = &http.Server{Handler: s.handler()}
		go func() {
			// ErrServerClosed on Stop; anything else means the listener
			// died underneath a healthy farm — jobs keep running.
			_ = s.srv.Serve(ln)
		}()
	}
	s.recordMetrics()
	return s, nil
}

// replay rebuilds the job table from queue-log records. Jobs replay
// in log order; a job is re-queued unless a later done/fail record
// closed it. Unknown ops or malformed payloads fail loudly — the log
// is fsynced and checksummed, so they mean a version skew, not a
// crash.
func (s *Server) replay(recs [][]byte) error {
	for i, raw := range recs {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("farm: queue-log record %d: %w", i, err)
		}
		switch r.Op {
		case "submit":
			if r.Spec == nil {
				return fmt.Errorf("farm: queue-log record %d: submit without a spec", i)
			}
			s.jobs[r.ID] = &job{status: JobStatus{ID: r.ID, State: JobQueued, Spec: *r.Spec}}
			s.order = append(s.order, r.ID)
			// IDs are sequential (job-1, job-2, ...); track the max so
			// new submissions continue the sequence.
			var n int
			if _, err := fmt.Sscanf(r.ID, "job-%d", &n); err == nil && n > s.nextID {
				s.nextID = n
			}
		case "done", "fail":
			j, ok := s.jobs[r.ID]
			if !ok {
				return fmt.Errorf("farm: queue-log record %d closes unknown job %q", i, r.ID)
			}
			if r.Op == "done" {
				j.status.State = JobDone
				j.status.Summary = r.Summary
				if r.Summary != nil {
					j.status.Round = r.Summary.Rounds
					j.status.Tests = r.Summary.Tests
					j.status.Coverage = r.Summary.Coverage
				}
			} else {
				j.status.State = JobFailed
				j.status.Error = r.Err
			}
		default:
			return fmt.Errorf("farm: queue-log record %d has unknown op %q", i, r.Op)
		}
	}
	// Re-queue survivors in submission order; restore recovered
	// progress and round history, so status and watchers read the
	// checkpoint's numbers before a worker picks the job up.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.status.State != JobQueued {
			continue
		}
		if info, err := s.checkpointInfo(j, id); err == nil {
			j.rounds = reports(info.Merged)
			j.status.Round = info.Round
			j.status.Tests = info.Tests
			if n := len(info.Merged); n > 0 {
				j.status.Coverage = info.Merged[n-1].Coverage
			}
			j.status.Resumes++
		}
		s.queue = append(s.queue, id)
		fmt.Fprintf(s.cfg.Log, "farm: re-queued %s (round %d, %d tests)\n", id, j.status.Round, j.status.Tests)
	}
	return nil
}

func (s *Server) jobDir(id string) string { return filepath.Join(s.cfg.Dir, "jobs", id) }

// checkpointPath is the path of a job's checkpoint slot store
// (atomicio.Slots): its slot files are checkpointPath + ".0" and ".1".
func (s *Server) checkpointPath(id string) string { return filepath.Join(s.jobDir(id), "ckpt") }

// loadCheckpoint is the one read of a job's durable checkpoint: the
// payload and generation of its slot store's newest valid slot, read
// between its runner's commits. The error wraps fs.ErrNotExist when
// the job has no slot file yet. It takes no s.mu, and may be called
// with it held.
func (s *Server) loadCheckpoint(j *job, id string) ([]byte, uint64, error) {
	j.ckpt.RLock()
	defer j.ckpt.RUnlock()
	return atomicio.ReadSlots(s.checkpointPath(id))
}

// checkpointInfo decodes the envelope of a job's durable checkpoint.
func (s *Server) checkpointInfo(j *job, id string) (campaign.CheckpointInfo, error) {
	b, _, err := s.loadCheckpoint(j, id)
	if err != nil {
		return campaign.CheckpointInfo{}, err
	}
	return campaign.DecodeCheckpointInfo(bytes.NewReader(b))
}

// shutdownWorkers stops the worker pool without touching the WAL
// (Open's error path, before anything ran).
func (s *Server) shutdownWorkers() {
	s.mu.Lock()
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Addr returns the API listener's bound address ("" in library mode).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Submit validates, defaults, durably logs and enqueues a job. The
// returned status is the job's initial queued state; the job is
// recoverable the moment Submit returns.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return JobStatus{}, fmt.Errorf("farm: server is shutting down")
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	raw, err := json.Marshal(walRecord{Op: "submit", ID: id, Spec: &spec})
	if err != nil {
		return JobStatus{}, err
	}
	// Durability before acknowledgement: the WAL append fsyncs.
	if err := s.wal.Append(raw); err != nil {
		return JobStatus{}, err
	}
	j := &job{status: JobStatus{ID: id, State: JobQueued, Spec: spec}}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	s.recordMetricsLocked()
	s.cond.Broadcast()
	fmt.Fprintf(s.cfg.Log, "farm: queued %s (%d tests, %d shards)\n", id, spec.Tests, spec.Shards)
	return j.status, nil
}

// Job returns a job's status snapshot.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status, true
}

// Jobs returns every job's status, in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status)
	}
	return out
}

// Rounds returns the round reports of a job from index `from` on
// (0-based into the report history). ok is false for unknown jobs.
func (s *Server) Rounds(id string, from int) (reps []RoundReport, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reps, _, ok = s.roundsLocked(id, from)
	return reps, ok
}

// roundsLocked is the one read of a job's report history, from index
// `from` on, and whether the job is terminal. The history is what this
// daemon published or replay rebuilt or, for a job that finished
// before the daemon started (replay decodes no finished job's
// checkpoint), its durable checkpoint's trajectory, read once and
// kept. Called with s.mu held.
func (s *Server) roundsLocked(id string, from int) (reps []RoundReport, terminal, ok bool) {
	j, ok := s.jobs[id]
	if !ok {
		return nil, false, false
	}
	terminal = j.status.State == JobDone || j.status.State == JobFailed
	if len(j.rounds) == 0 && terminal {
		if info, err := s.checkpointInfo(j, id); err == nil {
			j.rounds = reports(info.Merged)
		}
	}
	from = max(0, min(from, len(j.rounds)))
	return append([]RoundReport{}, j.rounds[from:]...), terminal, true
}

// popJob blocks until a job is available or the server stops,
// claiming the oldest queued job.
func (s *Server) popJob() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.stopping {
		s.cond.Wait()
	}
	if s.stopping {
		return "", false
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	j := s.jobs[id]
	j.status.State = JobRunning
	s.recordMetricsLocked()
	s.cond.Broadcast()
	return id, true
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		id, ok := s.popJob()
		if !ok {
			return
		}
		s.runJob(id)
	}
}

// stopRequested reports whether runners should park their jobs at the
// next round barrier.
func (s *Server) stopRequested() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

// isKilled reports crash-simulation mode (see kill).
func (s *Server) isKilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// finishJob durably closes a job (done or fail) and broadcasts. In
// killed mode the terminal record is deliberately dropped — the
// simulated crash — so a reopened farm re-queues the job.
func (s *Server) finishJob(id string, summary *JobSummary, runErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if s.killed {
		return
	}
	rec := walRecord{ID: id}
	if runErr != nil {
		rec.Op, rec.Err = "fail", runErr.Error()
	} else {
		rec.Op, rec.Summary = "done", summary
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		err = s.wal.Append(raw)
	}
	if err != nil {
		// The job finished but its terminal record did not land: keep
		// it non-terminal so a restart re-runs (resume makes that
		// harmless) rather than losing the failure.
		fmt.Fprintf(s.cfg.Log, "farm: %s: queue log: %v\n", id, err)
		j.status.State = JobQueued
		s.queue = append(s.queue, id)
		s.recordMetricsLocked()
		s.cond.Broadcast()
		return
	}
	if runErr != nil {
		j.status.State = JobFailed
		j.status.Error = runErr.Error()
		fmt.Fprintf(s.cfg.Log, "farm: %s failed: %v\n", id, runErr)
	} else {
		j.status.State = JobDone
		j.status.Summary = summary
		fmt.Fprintf(s.cfg.Log, "farm: %s done: %d rounds, %d tests, %.2f%% coverage\n",
			id, summary.Rounds, summary.Tests, summary.Coverage)
	}
	s.recordMetricsLocked()
	s.cond.Broadcast()
}

// parkJob returns a stopping job to the queue (graceful shutdown: its
// checkpoint is durable, the restart will resume it).
func (s *Server) parkJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	j.status.State = JobQueued
	s.recordMetricsLocked()
	s.cond.Broadcast()
	fmt.Fprintf(s.cfg.Log, "farm: parked %s at round %d\n", id, j.status.Round)
}

// Stop shuts the farm down gracefully: the listener closes, runners
// finish their current round, checkpoint, and park; the queue log
// closes last. Jobs still queued or parked resume on the next Open.
func (s *Server) Stop() error {
	s.mu.Lock()
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.srv != nil {
		_ = s.srv.Close()
	}
	s.wg.Wait()
	return s.wal.Close()
}

// kill is the crash lever for this package's recovery tests: it
// behaves like Stop except that runners abandon their jobs without a
// final checkpoint or terminal record — exactly the on-disk state a
// kill -9 between durable writes leaves behind. (A real SIGKILL is
// exercised by the cmd/campd end-to-end test.)
func (s *Server) kill() {
	s.mu.Lock()
	s.stopping = true
	s.killed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.srv != nil {
		_ = s.srv.Close()
	}
	s.wg.Wait()
	// Deliberately skip the WAL close-path flushes a graceful Stop
	// performs; appends were individually fsynced, so the log is
	// already exactly what a crash would leave.
	_ = s.wal.f.Close()
}

// recordMetrics publishes farm gauges into cfg.Metrics.
func (s *Server) recordMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recordMetricsLocked()
}

func (s *Server) recordMetricsLocked() {
	g := s.cfg.Metrics
	if g == nil {
		return
	}
	counts := map[JobState]int{}
	for _, id := range s.order {
		counts[s.jobs[id].status.State]++
	}
	g.Gauge("farm/jobs_queued").Set(float64(counts[JobQueued]))
	g.Gauge("farm/jobs_running").Set(float64(counts[JobRunning]))
	g.Gauge("farm/jobs_done").Set(float64(counts[JobDone]))
	g.Gauge("farm/jobs_failed").Set(float64(counts[JobFailed]))
}
