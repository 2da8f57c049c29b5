//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"chatfuzz/internal/atomicio"
	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
)

// Every workload runs the same fleet shape: a mixed rocket,boom fleet
// of 4 shards x 16-test batches with differential detection on, built
// from checkpointed campaign.Config fields only — the path a default
// `fuzz-bench campaign` and every campd job run.
const (
	shards    = 4
	batchSize = 16
	baseBody  = 24 // instructions per test of the mutation arms
)

var designs = []string{"rocket", "boom"}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	arms []string
	// tests is the fixed budget of one repeat (a whole campaign from
	// round 0) or, under the farm, of one job; quick is the smoke-test
	// budget. Fixed so that coverage_pct at the budget is comparable
	// between machines, and sized so that one repeat measures for
	// 10-15 s on two cores: --seconds fits one.
	tests, quick int
	jobs         int // farm: the jobs of one run (the smoke test runs quickJobs)
}

const quickJobs = 4

var mutationArms = []string{"thehuzz", "randinst", "randfuzz"}

var workloads = []workload{
	{name: "mutate_fleet", arms: mutationArms, tests: 400000, quick: 1024},
	{name: "frozen_lm_fleet", arms: []string{"chatfuzz"}, tests: 12288, quick: 128},
	{name: "learn_fleet", arms: []string{"chatfuzz-learn"}, tests: 2048, quick: 128},
	{name: "farm_jobs", arms: mutationArms, tests: 12800, quick: 512, jobs: 24},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) needsPipeline() bool {
	return w.arms[0] == "chatfuzz" || w.arms[0] == "chatfuzz-learn"
}

// run is one invocation of one workload.
type run struct {
	w       workload
	seed    int64
	seconds float64
	quick   bool
	outDir  string
	log     io.Writer

	// pipe is the trained pipeline of the LM arms. Set-up trains it,
	// unless the caller (the smoke test) brought its own.
	pipe      *core.Pipeline
	attempted int
	failures  []string
}

func (r *run) budget() int {
	if r.quick {
		return r.w.quick
	}
	return r.w.tests
}

// anotherFits reports whether a repeat as long as the last one, which
// took d, would still end within secs seconds of begin. A run always
// makes one repeat; its budget is fixed, so --seconds decides only how
// many more there are.
func anotherFits(begin time.Time, d time.Duration, secs float64) bool {
	return seconds(time.Since(begin)+d) <= secs
}

func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(r.log, "FAIL:", msg)
}

func newDUT(name string) rtl.ReusableDUT {
	if name == "boom" {
		return boom.New()
	}
	return rocket.New()
}

// dutConstructors builds the fleet's designs, decorated with timing
// spans when rec is non-nil.
func dutConstructors(rec *recorder) []func() rtl.DUT {
	out := make([]func() rtl.DUT, len(designs))
	for i, name := range designs {
		out[i] = func() rtl.DUT {
			if rec != nil {
				return newTimedDUT(newDUT(name), rec)
			}
			return newDUT(name)
		}
	}
	return out
}

func (r *run) armSpecs() []campaign.ArmSpec {
	var specs []campaign.ArmSpec
	for _, a := range r.w.arms {
		switch a {
		case "thehuzz":
			specs = append(specs, campaign.TheHuzzArm(baseBody))
		case "randinst":
			specs = append(specs, campaign.RandInstArm(baseBody))
		case "randfuzz":
			specs = append(specs, campaign.RandFuzzArm(baseBody))
		case "chatfuzz":
			specs = append(specs, campaign.LLMArm(r.pipe))
		case "chatfuzz-learn":
			specs = append(specs, campaign.LearningLLMArm(r.pipe))
		}
	}
	return specs
}

// simStats are the simulated statistics of one campaign: a pure
// function of the seed, so every repeat, the traced run and — under
// the farm — the daemon's copy must agree on them exactly.
type simStats struct {
	Tests, Rounds   int
	Hours, Coverage float64
	Raw, Clusters   int
	SHA             string // of the final checkpoint
}

// campaignRun is what one fleet campaign measured.
type campaignRun struct {
	sim  simStats
	ckpt []byte
	// The timed region is every round but the first (the warm-up).
	wall, hours  float64
	tests        int
	rounds       []float64 // seconds per timed RunRound call
	ckptFiles    []float64 // seconds per CheckpointFile call
	host0, host1 hostSnap  // around the timed region (trace runs only)
	pulls        map[string]int
	snapHits     int64
	snapMisses   int64
}

func (c campaignRun) testsPerS() float64 { return float64(c.tests) / c.wall }

// roundTestsPerS counts only the time inside RunRound, which is what a
// run that also checkpoints between rounds can be compared on.
func (c campaignRun) roundTestsPerS() float64 { return float64(c.tests) / sum(c.rounds) }

// campaignOpts selects what a campaign records on top of its timing.
type campaignOpts struct {
	seed  int64
	tests int
	rec   *recorder // non-nil: traced run (timed DUTs, one span per round)
	host  bool      // read rusage/MemStats around the timed region
	// ckptPath, when set, writes a durable checkpoint after every
	// round, as a farm job with CheckpointEvery 1 does.
	ckptPath string
	// inspect runs against the finished fleet before it is closed.
	inspect func(o *campaign.Orchestrator, ckpt []byte) error
}

// campaign runs one fleet from round 0 until it has committed the test
// budget, through the narrowest public surface: NewMixed, RunRound,
// Checkpoint. The first round warms the fleet's scratch and is left
// out of the timed region.
func (r *run) campaign(opt campaignOpts) (campaignRun, error) {
	var c campaignRun
	cfg := campaign.Config{Shards: shards, BatchSize: batchSize, Seed: opt.seed, Detect: true}
	o, err := campaign.NewMixed(cfg, dutConstructors(opt.rec), r.armSpecs()...)
	if err != nil {
		return c, err
	}
	defer o.Close()

	var tr *track
	if opt.rec != nil {
		tr = opt.rec.newTrack("campaign")
	}
	var t0 time.Time
	tests0, hours0 := 0, 0.0
	for round := 0; o.Tests() < opt.tests; round++ {
		if round == 1 {
			tests0, hours0 = o.Tests(), o.Hours()
			if opt.host {
				c.host0 = readHost()
			}
			t0 = time.Now()
		}
		var id int64
		if opt.rec != nil {
			id = opt.rec.id()
			opt.rec.parent.Store(id)
		}
		rt := time.Now()
		if err := o.RunRound(); err != nil {
			return c, err
		}
		if round > 0 {
			c.rounds = append(c.rounds, seconds(time.Since(rt)))
		}
		if opt.rec != nil {
			opt.rec.add(tr, "campaign.round", id, 0, rt)
		}
		if opt.ckptPath != "" {
			ct := time.Now()
			if err := o.CheckpointFile(opt.ckptPath); err != nil {
				return c, err
			}
			if round > 0 {
				c.ckptFiles = append(c.ckptFiles, seconds(time.Since(ct)))
			}
			if opt.rec != nil {
				opt.rec.add(tr, "campaign.checkpoint_file", opt.rec.id(), id, ct)
			}
		}
	}
	if t0.IsZero() {
		return c, fmt.Errorf("budget of %d tests ends inside the warm-up round", opt.tests)
	}
	c.wall = seconds(time.Since(t0))
	if opt.host {
		c.host1 = readHost()
	}
	c.tests, c.hours = o.Tests()-tests0, o.Hours()-hours0

	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		return c, err
	}
	c.ckpt = buf.Bytes()
	sum := sha256.Sum256(c.ckpt)
	c.sim = simStats{Tests: o.Tests(), Rounds: o.Rounds(), Hours: o.Hours(), Coverage: o.Coverage(), SHA: hex.EncodeToString(sum[:])}
	for i := 0; i < shards; i++ {
		f := o.Shard(i)
		c.sim.Raw += f.Det.RawCount
		c.sim.Clusters += len(f.Det.Unique())
		if st, ok := f.EngineStats(); ok {
			c.snapHits += st.SnapHits
			c.snapMisses += st.SnapMisses
		}
	}
	c.pulls = make(map[string]int)
	for _, a := range o.Report().Arms {
		c.pulls[a.Name] = a.Pulls
	}
	if opt.inspect != nil {
		return c, opt.inspect(o, c.ckpt)
	}
	return c, nil
}

// setupTimes are the stages of one set-up and their total, in seconds.
type setupTimes [6]float64

const (
	stCorpusTok = iota
	stPretrain
	stCleanup
	stCoverageTune
	stWarmup
	stTotal
)

// setupFleet does what a process must before its first timed round:
// train the pipeline the LM arms sample (campd's: the deterministic
// test-scale configuration, tuned against rocket) and run a warm-up
// campaign of 1/32 of the budget, so that lazily built state — the
// golden prologue, the decode caches, a grown heap — exists. The total
// counts from the start of the process: one sample per process.
func (r *run) setupFleet() (setupTimes, error) {
	var st setupTimes
	if r.w.needsPipeline() && r.pipe == nil {
		stage := func(i int, fn func()) {
			t := time.Now()
			fn()
			st[i] = seconds(time.Since(t))
		}
		stage(stCorpusTok, func() { r.pipe = core.NewPipeline(core.TestPipelineConfig()) })
		stage(stPretrain, func() { r.pipe.Pretrain() })
		stage(stCleanup, func() { r.pipe.Cleanup() })
		stage(stCoverageTune, func() { r.pipe.CoverageTune(rocket.New()) })
	}
	t := time.Now()
	if _, err := r.campaign(campaignOpts{seed: r.seed, tests: max(r.budget()/32, 2*shards*batchSize)}); err != nil {
		return st, err
	}
	st[stWarmup] = seconds(time.Since(t))
	st[stTotal] = seconds(time.Since(procStart))
	return st, nil
}

// fleetEndToEnd runs the workload's campaign, untraced, and again
// while another repeat fits r.seconds, and reports the median repeat.
func (r *run) fleetEndToEnd(m *metricSet) error {
	st, err := r.setupFleet()
	if err != nil {
		return err
	}
	var first simStats
	var tps, perHour, latency []float64
	begin := time.Now()
	for rep := 0; ; rep++ {
		t0 := time.Now()
		c, err := r.campaign(campaignOpts{seed: r.seed, tests: r.budget()})
		r.attempted++
		if err != nil {
			r.fail("repeat %d: %v", rep, err)
			break
		}
		if rep == 0 {
			first = c.sim
		} else if c.sim != first {
			r.fail("repeat %d is not deterministic: %+v, repeat 0 had %+v", rep, c.sim, first)
		}
		tps = append(tps, c.testsPerS())
		fmt.Fprintf(r.log, "repeat %d: %.0f tests/s\n", rep, c.testsPerS())
		perHour = append(perHour, c.wall/c.hours)
		latency = append(latency, seconds(time.Since(t0)))
		if !anotherFits(begin, time.Since(t0), r.seconds) {
			break
		}
	}
	fmt.Fprintf(r.log, "%s seed %d: %d repeats of %d tests; simulated %+v\n", r.w.name, r.seed, len(tps), r.budget(), first)
	m.set("tests_per_s", median(tps))
	m.set("wall_s_per_virt_hour", median(perHour))
	m.set("coverage_pct", first.Coverage)
	// Under a fleet workload a job is one whole campaign: build the
	// fleet, run the budget, encode the checkpoint.
	m.set("job_latency_p50_s", median(latency))
	m.set("jobs_per_s", 1/median(latency))
	m.set("peak_rss_mb", peakRSSMB())
	m.set("setup_s", st[stTotal])
	return nil
}

// fleetTraced produces the per-layer table.
func (r *run) fleetTraced(m *metricSet) error {
	st, err := r.setupFleet()
	if err != nil {
		return err
	}
	setSetup(m, st)
	rec := &recorder{}
	if err := r.tracedPairs(m, rec, r.seconds, ""); err != nil {
		return err
	}
	return rec.write(filepath.Join(r.outDir, r.w.name+".trace.json"))
}

// tracedPairs runs a leaf replay, an untraced campaign and a traced
// campaign of the run's seed, and again while another such pair fits
// secs seconds. The
// leaf metrics are medians over the replays. The first pair of
// campaigns supplies the in-situ, host, attribution and checkpoint
// metrics and leaves its spans in rec; all pairs together give the
// tracing overhead, and all must agree on every simulated statistic.
// ckptPath makes the traced campaigns checkpoint durably after every
// round, as a farm job does.
func (r *run) tracedPairs(m *metricSet, rec *recorder, secs float64, ckptPath string) error {
	var first tracedPair
	var leaves []*metricSet
	var plainTPS, tracedTPS []float64
	begin := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		leaf := newMetricSet(perLayer)
		if err := r.leafReplay(leaf); err != nil {
			return err
		}
		leaves = append(leaves, leaf)
		plain, err := r.campaign(campaignOpts{seed: r.seed, tests: r.budget(), host: true})
		r.attempted++
		if err != nil {
			return err
		}
		opts := campaignOpts{seed: r.seed, tests: r.budget(), rec: &recorder{}, ckptPath: ckptPath}
		if i == 0 {
			opts.rec = rec
			opts.inspect = func(o *campaign.Orchestrator, ckpt []byte) error { return r.checkpointLayers(m, o, ckpt) }
		}
		traced, err := r.campaign(opts)
		r.attempted++
		if err != nil {
			return err
		}
		if i == 0 {
			first = tracedPair{plain: plain, traced: traced, rec: rec}
			fmt.Fprintf(r.log, "%s seed %d: simulated %+v\n", r.w.name, r.seed, plain.sim)
		}
		if plain.sim != first.plain.sim || traced.sim != first.plain.sim {
			r.fail("pair %d is not bit-identical: traced %+v, untraced %+v, first %+v", i, traced.sim, plain.sim, first.plain.sim)
		}
		plainTPS = append(plainTPS, plain.roundTestsPerS())
		tracedTPS = append(tracedTPS, traced.roundTestsPerS())
		if !anotherFits(begin, time.Since(t0), secs) {
			break
		}
	}
	m.set("trace.overhead_pct", 100*(1-median(tracedTPS)/median(plainTPS)))
	runs := 0
	first.busy = make(map[string][]float64, len(designs))
	for _, d := range designs {
		first.busy[d] = rec.durations(d + ".run")
		runs += len(first.busy[d])
	}
	if runs != first.traced.sim.Tests {
		r.fail("the DUT decorator timed %d of the traced campaign's %d simulations", runs, first.traced.sim.Tests)
	}
	m.setMedians(leaves)
	first.setInSitu(m)
	first.setShares(m)
	if ckptPath != "" {
		files := first.traced.ckptFiles
		m.set("campaign.checkpoint_file_p50_ms", 1e3*median(files))
		m.set("farm.checkpoint_share_pct", 100*sum(files)/(sum(files)+sum(first.traced.rounds)))
	}
	return nil
}

// tracedPair is one untraced and one traced campaign of the same seed.
type tracedPair struct {
	plain, traced campaignRun
	rec           *recorder // the traced campaign's spans
	// busy holds, per design, the seconds of every simulation the
	// traced campaign ran.
	busy map[string][]float64
}

func setSetup(m *metricSet, st setupTimes) {
	m.set("setup.corpus_tok_s", st[stCorpusTok])
	m.set("setup.pretrain_s", st[stPretrain])
	m.set("setup.cleanup_s", st[stCleanup])
	m.set("setup.coverage_tune_s", st[stCoverageTune])
	m.set("setup.warmup_s", st[stWarmup])
}

// setInSitu reports what the traced campaign saw, the host's view of
// the untraced one, and the simulated statistics both agree on.
func (p tracedPair) setInSitu(m *metricSet) {
	plain, traced, rec := p.plain, p.traced, p.rec
	for _, d := range designs {
		m.set(d+".busy_s", sum(p.busy[d]))
		m.set(d+".runs", float64(len(p.busy[d])))
	}
	ms := make([]float64, len(traced.rounds))
	for i, s := range traced.rounds {
		ms[i] = 1e3 * s
	}
	m.set("campaign.round_p50_ms", median(ms))
	m.set("campaign.round_p99_ms", percentile(ms, 99))
	m.set("campaign.rounds", float64(plain.sim.Rounds))

	m.set("engine.snap_hits", float64(plain.snapHits))
	m.set("engine.snap_misses", float64(plain.snapMisses))
	if n := plain.snapHits + plain.snapMisses; n > 0 {
		m.set("engine.snap_hit_pct", 100*float64(plain.snapHits)/float64(n))
	}
	for arm, n := range plain.pulls {
		m.set("campaign.pulls."+arm, float64(n))
	}
	m.set("mismatch.raw", float64(plain.sim.Raw))
	m.set("mismatch.clusters", float64(plain.sim.Clusters))
	m.set("vtime.virt_hours", plain.sim.Hours)
	m.set("campaign.tests", float64(plain.sim.Tests))
	m.set("campaign.checkpoint_bytes", float64(len(plain.ckpt)))
	sha48, _ := strconv.ParseUint(plain.sim.SHA[:12], 16, 64) // 12 hex digits of our own encoding
	m.set("campaign.checkpoint_sha48", float64(sha48))

	h0, h1 := plain.host0, plain.host1
	cpu := (h1.user - h0.user) + (h1.sys - h0.sys)
	m.set("host.cpu_user_s", h1.user-h0.user)
	m.set("host.cpu_sys_s", h1.sys-h0.sys)
	m.set("host.cores_busy", cpu/seconds(h1.at.Sub(h0.at)))
	m.set("host.cpu_us_per_test", 1e6*cpu/float64(plain.tests))
	m.set("host.gc_pause_ms", float64(h1.gcPauseNs-h0.gcPauseNs)/1e6)
	m.set("host.alloc_mb", float64(h1.allocB-h0.allocB)/(1<<20))

	m.set("trace.spans", float64(rec.count()))
}

// setShares attributes the untraced campaign's CPU time to layers: each
// layer's leaf cost (already in m) times the calls the campaign made
// into it, as a share of the process CPU time of the timed region. What is left —
// engine and campaign orchestration, pool sync, GC — is unattributed.
func (p tracedPair) setShares(m *metricSet) {
	c, leaf := p.plain, m.vals
	cpuUs := 1e6 * ((c.host1.user - c.host0.user) + (c.host1.sys - c.host0.sys))
	// Counts cover the whole campaign; scale them to the timed region.
	timed := float64(c.tests) / float64(c.sim.Tests)
	tests := float64(c.tests)
	gen, train := 0.0, 0.0
	for arm, pulls := range c.pulls {
		switch arm {
		case "chatfuzz-learn":
			// Every pull's batch of rollouts is one PPO step at the barrier.
			train += 1e3 * leaf["ppo.step_ms_per_batch"] * float64(pulls) * timed
			fallthrough
		case "chatfuzz":
			arm = "nn"
		}
		gen += leaf[arm+".generate_us_per_prog"] * float64(pulls*batchSize) * timed
	}
	sim := 0.0
	for _, d := range designs {
		sim += leaf[d+".run_us_per_test"] * float64(len(p.busy[d])) * timed
	}
	// Per round and shard: the shard's bitmap merges into the global
	// one, and the global one back into the shard's.
	merges := 2 * float64(c.sim.Rounds*shards) * timed
	shares := map[string]float64{
		"share.generate_pct": gen,
		"share.build_pct":    leaf["prog.build_us_per_prog"] * tests,
		"share.sim_pct":      sim,
		"share.golden_pct":   leaf["engine.golden_us_per_test"] * tests,
		"share.mismatch_pct": leaf["mismatch.analyze_us_per_test"] * tests,
		"share.cov_pct":      leaf["cov.score_us_per_test"]*tests + leaf["cov.merge_us_per_merge"]*merges,
		"share.train_pct":    train,
	}
	rest := 100.0
	for name, us := range shares {
		pct := 100 * us / cpuUs
		m.set(name, pct)
		rest -= pct
	}
	m.set("share.unattributed_pct", rest)
}

// checkpointLayers times the durability path on the finished fleet's
// real state: encode (the second call: the first has joined the
// learner), resume, and the atomic durable write.
func (r *run) checkpointLayers(m *metricSet, o *campaign.Orchestrator, ckpt []byte) error {
	var buf bytes.Buffer
	t := time.Now()
	if err := o.Checkpoint(&buf); err != nil {
		return err
	}
	m.set("campaign.checkpoint_encode_ms", millis(time.Since(t)))
	if !bytes.Equal(buf.Bytes(), ckpt) {
		r.fail("two checkpoints of one paused fleet differ")
	}

	t = time.Now()
	resumed, err := campaign.ResumeMixed(bytes.NewReader(ckpt), dutConstructors(nil), r.armSpecs()...)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	m.set("campaign.resume_ms", millis(time.Since(t)))
	resumed.Close()

	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("%s.%d.ckpt", r.w.name, os.Getpid()))
	defer os.Remove(path)
	var writes []float64
	for i := 0; i < 5; i++ {
		t = time.Now()
		if err := atomicio.WriteFileBytes(path, ckpt); err != nil {
			return err
		}
		writes = append(writes, millis(time.Since(t)))
	}
	m.set("atomicio.write_ms", median(writes))
	return nil
}
