//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chatfuzz/internal/farm"
)

const (
	farmWorkers = 2 // campd jobs running side by side
	farmClients = 2 // closed loop: each submits, watches to done, repeats
)

// farmRun is what one farm_jobs run measured.
type farmRun struct {
	dir     string
	srv     *farm.Server
	elapsed float64 // first submit to last done
	jobs    int
	tests   int
	hours   float64 // virtual, summed over jobs
	// coverage holds the final coverage of the budgeted jobs, by job
	// number: a run with time to spare makes more jobs than those.
	coverage []float64
	// Seconds per call, over the timed jobs.
	latency, submit, trajectory []float64
	setup                       setupTimes
	job1                        farm.JobStatus
	twin                        campaignRun // job 1's spec, run directly
}

func (r *run) jobSpec(seed int64) farm.JobSpec {
	return farm.JobSpec{
		DUTs: designs, Arms: r.w.arms, Tests: r.budget(), Shards: shards, BatchSize: batchSize,
		Seed: seed, Body: baseBody, Detect: true, CheckpointEvery: 1,
	}
}

func (r *run) jobs() int {
	if r.quick {
		return quickJobs
	}
	return r.w.jobs
}

// jobSeed gives the k-th timed job of a run its own campaign seed.
func (r *run) jobSeed(k int) int64 { return r.seed*1_000_003 + int64(k) }

func newFarmClient(addr string) (*farm.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1}
	c := farm.NewClient(addr)
	c.HTTP = &http.Client{Transport: tr}
	return c, tr.CloseIdleConnections
}

// runJob submits one job and watches it to its end; a job that does
// not finish done, with its whole budget, is a failed operation.
func (r *run) runJob(c *farm.Client, spec farm.JobSpec, rec *recorder, tr *track) (st farm.JobStatus, submitS, latencyS float64, err error) {
	var id int64
	if rec != nil {
		id = rec.id()
	}
	t0 := time.Now()
	st, err = c.Submit(spec)
	submitS = seconds(time.Since(t0))
	if err != nil {
		return st, 0, 0, err
	}
	if rec != nil {
		rec.add(tr, "farm.submit", rec.id(), id, t0)
	}
	st, err = c.Watch(st.ID, 0, nil)
	latencyS = seconds(time.Since(t0))
	if rec != nil {
		rec.add(tr, "farm.job", id, 0, t0)
	}
	if err != nil {
		return st, submitS, latencyS, err
	}
	if st.State != farm.JobDone || st.Summary == nil || st.Summary.Tests < spec.Tests {
		return st, submitS, latencyS, fmt.Errorf("%s ended %s (%s) short of %d tests", st.ID, st.State, st.Error, spec.Tests)
	}
	return st, submitS, latencyS, nil
}

// setupFarm opens a daemon on a fresh data directory and runs job 1
// (the run's seed) through it, which is the warm-up.
func (r *run) setupFarm(f *farmRun) error {
	f.dir = filepath.Join(r.outDir, fmt.Sprintf("farm-%d", os.Getpid()))
	var err error
	if f.srv, err = farm.Open(farm.Config{Dir: f.dir, Addr: "127.0.0.1:0", Workers: farmWorkers}); err != nil {
		return err
	}
	t := time.Now()
	c, done := newFarmClient(f.srv.Addr())
	_, _, _, err = r.runJob(c, r.jobSpec(r.seed), nil, nil)
	done()
	r.attempted++
	f.setup[stWarmup] = seconds(time.Since(t))
	f.setup[stTotal] = seconds(time.Since(procStart))
	return err
}

// farmLoop drives the daemon closed-loop: each client takes the next
// job, submits it, watches it to done, and repeats, until the run's
// jobs are handed out and r.seconds have passed. Jobs in flight then
// run to their end.
func (r *run) farmLoop(f *farmRun, rec *recorder) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(time.Duration(r.seconds * float64(time.Second)))
	var lastDone time.Time
	next, failed := 0, false
	f.coverage = make([]float64, r.jobs())
	for cl := 0; cl < farmClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, done := newFarmClient(f.srv.Addr())
			defer done()
			var tr *track
			if rec != nil {
				tr = rec.newTrack(fmt.Sprintf("client%d", cl))
			}
			for {
				mu.Lock()
				k := next
				next++
				stop := failed || (k >= r.jobs() && !time.Now().Before(deadline))
				mu.Unlock()
				if stop {
					return
				}
				st, submitS, latencyS, err := r.runJob(c, r.jobSpec(r.jobSeed(k)), rec, tr)
				end := time.Now()
				trajS := -1.0
				if err == nil && rec != nil {
					// The read path, while the other worker writes.
					t := time.Now()
					_, err = c.Trajectory(st.ID)
					trajS = seconds(time.Since(t))
					rec.add(tr, "farm.trajectory", rec.id(), 0, t)
				}
				mu.Lock()
				r.attempted++
				if err != nil {
					r.fail("client %d job %d: %v", cl, k, err)
					failed = true
					mu.Unlock()
					return
				}
				f.jobs++
				f.tests += st.Summary.Tests
				f.hours += st.Summary.Hours
				if k < len(f.coverage) {
					f.coverage[k] = st.Summary.Coverage
				}
				f.latency = append(f.latency, latencyS)
				f.submit = append(f.submit, submitS)
				if trajS >= 0 {
					f.trajectory = append(f.trajectory, trajS)
				}
				if end.After(lastDone) {
					lastDone = end
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	f.elapsed = seconds(lastDone.Sub(t0))
}

// farmSession sets the daemon up, loads it, stops it, and checks job 1
// against the same campaign run directly: the daemon's final
// checkpoint must be byte-identical to the twin's. The caller removes
// f.dir.
func (r *run) farmSession(f *farmRun, rec *recorder) (err error) {
	if err = r.setupFarm(f); err != nil {
		if f.srv != nil {
			err = errors.Join(err, f.srv.Stop())
		}
		return err
	}
	r.farmLoop(f, rec)

	c, done := newFarmClient(f.srv.Addr())
	f.job1, err = c.Job("job-1")
	var ckpt []byte
	if err == nil {
		ckpt, err = c.Checkpoint("job-1")
	}
	done()
	if stopErr := f.srv.Stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if f.jobs == 0 {
		return fmt.Errorf("no job finished")
	}

	f.twin, err = r.campaign(campaignOpts{seed: r.seed, tests: r.budget()})
	r.attempted++
	if err != nil {
		return err
	}
	sum, sim := f.job1.Summary, f.twin.sim
	if !bytes.Equal(ckpt, f.twin.ckpt) || sum.Tests != sim.Tests || sum.Rounds != sim.Rounds ||
		sum.Hours != sim.Hours || sum.Coverage != sim.Coverage {
		r.fail("job-1 is not bit-identical to its direct twin: %+v, twin %+v", *sum, sim)
	}
	fmt.Fprintf(r.log, "%s seed %d: %d jobs of %d tests; job-1 simulated %+v\n", r.w.name, r.seed, f.jobs, r.budget(), sim)
	return nil
}

func (r *run) farmEndToEnd(m *metricSet) error {
	var f farmRun
	defer f.remove()
	if err := r.farmSession(&f, nil); err != nil {
		return err
	}
	m.set("tests_per_s", float64(f.tests)/f.elapsed)
	m.set("wall_s_per_virt_hour", f.elapsed/f.hours)
	// The budgeted jobs are the same for a seed however many the run
	// had time for; summed in job order, so is their mean.
	m.set("coverage_pct", sum(f.coverage)/float64(len(f.coverage)))
	m.set("jobs_per_s", float64(f.jobs)/f.elapsed)
	m.set("job_latency_p50_s", median(f.latency))
	m.set("peak_rss_mb", peakRSSMB())
	m.set("setup_s", f.setup[stTotal])
	return nil
}

// farmTraced adds, to the layers of the jobs' campaigns, the farm's
// own: submit (WAL append + fsync), the trajectory read path,
// log replay on reopen, and — on job 1's direct twin, traced — what a
// durable checkpoint after every round costs beside the round itself.
func (r *run) farmTraced(m *metricSet) error {
	rec := &recorder{}
	var f farmRun
	defer f.remove()
	if err := r.farmSession(&f, rec); err != nil {
		return err
	}
	setSetup(m, f.setup)
	m.set("farm.submit_p50_ms", 1e3*median(f.submit))
	m.set("farm.trajectory_p50_ms", 1e3*median(f.trajectory))
	m.set("farm.overhead_pct", 100*(1-float64(f.tests)/f.elapsed/f.twin.testsPerS()))

	// Replaying the finished data directory: what a restart pays.
	t := time.Now()
	srv, err := farm.Open(farm.Config{Dir: f.dir})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	m.set("farm.reopen_ms", millis(time.Since(t)))
	if err := srv.Stop(); err != nil {
		return err
	}

	// The farm's campaign layers, on job 1's twin: a few pairs suffice,
	// a twin takes well under a second.
	if err := r.tracedPairs(m, rec, min(3, r.seconds), filepath.Join(f.dir, "twin.ckpt.json")); err != nil {
		return err
	}
	return rec.write(filepath.Join(r.outDir, r.w.name+".trace.json"))
}

func (f *farmRun) remove() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
