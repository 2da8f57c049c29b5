//go:build linux

package main

import (
	"math/rand"
	"time"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/core"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/engine"
	"chatfuzz/internal/fleetlearn"
	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/trace"
)

// timeEach calls fn(i) n times on this goroutine and returns each
// call's duration in microseconds. after, when non-nil, runs untimed
// behind every call: it keeps what the next call's scratch would
// overwrite.
func timeEach(n int, fn, after func(i int)) []float64 {
	us := make([]float64, n)
	for i := range us {
		t := time.Now()
		fn(i)
		us[i] = micros(time.Since(t))
		if after != nil {
			after(i)
		}
	}
	return us
}

// rolloutTap is a core.RolloutSink that keeps the scored rollouts a
// generator hands over, so the trainer can be replayed on them.
type rolloutTap struct{ rolls []*ppo.Rollout }

func (t *rolloutTap) StepRollouts(rolls []*ppo.Rollout) ppo.Stats {
	t.rolls = rolls
	return ppo.Stats{}
}

// leafReplay times every layer a test crosses, one call at a time on
// one goroutine, on programs drawn with the workload seed from the
// workload's own generators: the arms' share of a campaign's programs
// is equal here, whatever the bandit later pays them. One pass takes a
// fraction of a second, which on a shared machine is one sample of its
// speed; the caller takes one before each pair of campaigns.
func (r *run) leafReplay(m *metricSet) error {
	n := 256
	if r.quick {
		n = 16
	}
	rocketDUT := newDUT("rocket")
	bins := rocketDUT.Space().NumBins()

	// Generate.
	var progs []prog.Program
	var llm *core.LLMGenerator
	tap := &rolloutTap{}
	for _, arm := range r.w.arms {
		var gen func() prog.Program
		switch arm {
		case "thehuzz":
			g := thehuzz.New(r.seed, baseBody)
			// Fill the seed pool, so the replay takes the mutation
			// path as often as a running campaign does.
			warm := g.GenerateBatch(64)
			scores := make([]cov.Scores, len(warm))
			for i := range scores {
				scores[i].Incremental = 1
			}
			g.Feedback(scores)
			gen = func() prog.Program { return g.GenerateBatch(1)[0] }
		case "randinst":
			rng := rand.New(rand.NewSource(r.seed))
			gen = func() prog.Program { return prog.Program{Body: randinst.Program(rng, baseBody)} }
		case "randfuzz":
			g := randfuzz.New(r.seed, baseBody)
			g.Raw = true
			gen = func() prog.Program { return g.GenerateBatch(1)[0] }
		case "chatfuzz", "chatfuzz-learn":
			// The replica generator samples like the frozen one and
			// hands its rollouts to the tap.
			llm = core.NewReplicaGenerator(r.pipe, r.pipe.Model, tap, bins, r.seed)
			gen = func() prog.Program { return llm.GenerateBatch(1)[0] }
		}
		tokens := 0
		us := timeEach(n, func(int) { progs = append(progs, gen()) }, func(int) {
			if llm != nil {
				// Feedback hands the tap the program's rollouts.
				llm.Feedback([]cov.Scores{{}})
				for _, roll := range tap.rolls {
					tokens += len(roll.LogpOld)
				}
			}
		})
		if llm != nil {
			m.set("nn.generate_us_per_prog", median(us))
			m.set("nn.generate_tokens_per_s", float64(tokens)/(sum(us)/1e6))
		} else {
			m.set(arm+".generate_us_per_prog", median(us))
		}
	}

	// Build.
	imgs := make([]mem.Image, len(progs))
	budgets := make([]int, len(progs))
	m.set("prog.build_us_per_prog", median(timeEach(len(progs), func(i int) {
		// Generated bodies never exceed the harness's text section.
		imgs[i], _ = prog.MustBuild(progs[i])
		budgets[i] = prog.InstructionBudget(len(progs[i].Body))
	}, nil)))

	// DUT simulation, on the scratch-reusing runner the engine uses and,
	// like it, into a coverage set and a trace buffer that already exist.
	var rocketRes []rtl.Result
	var scratch []trace.Entry
	for _, d := range designs {
		dut := rocketDUT
		if d != "rocket" {
			dut = newDUT(d)
		}
		runner := dut.NewRunner()
		res := make([]rtl.Result, len(imgs))
		sets := make([]*cov.Set, len(imgs))
		for i := range sets {
			sets[i] = dut.Space().NewSet()
		}
		insts := 0
		us := timeEach(len(imgs), func(i int) {
			res[i] = runner.RunScratch(imgs[i], budgets[i], sets[i], scratch)
		}, func(i int) {
			insts += len(res[i].Trace)
			scratch = res[i].Trace
			res[i].Trace = append([]trace.Entry(nil), scratch...)
		})
		m.set(d+".run_us_per_test", median(us))
		m.set(d+".sim_minsts_per_s", float64(insts)/sum(us))
		if d == "rocket" {
			rocketRes = res
		}
	}

	// Golden model: from reset, and the engine's prologue-snapshot run.
	gmem := mem.Platform()
	insts := 0
	us := timeEach(len(imgs), func(i int) {
		gmem.Reset()
		gmem.Load(imgs[i])
		scratch = iss.New(gmem, imgs[i].Entry).RunAppend(scratch[:0], budgets[i])
	}, func(int) { insts += len(scratch) })
	m.set("iss.run_us_per_test", median(us))
	m.set("iss.sim_minsts_per_s", float64(insts)/sum(us))
	golden := make([][]trace.Entry, len(imgs))
	m.set("engine.golden_us_per_test", median(timeEach(len(imgs), func(i int) {
		gmem.Reset()
		scratch = engine.GoldenRun(gmem, imgs[i], budgets[i], scratch[:0])
	}, func(i int) { golden[i] = append([]trace.Entry(nil), scratch...) })))

	// Commit: trace compare + clustering, coverage scoring, barrier merge.
	det := mismatch.NewDetector()
	m.set("mismatch.analyze_us_per_test", median(timeEach(len(imgs), func(i int) {
		det.Analyze(i+1, rocketRes[i].Trace, golden[i])
	}, nil)))
	calc := cov.NewCalculator(rocketDUT.Space())
	m.set("cov.score_us_per_test", median(timeEach(len(imgs), func(i int) {
		if i%batchSize == 0 {
			calc.BeginBatch()
		}
		calc.Score(rocketRes[i].Coverage)
	}, nil)))
	global := rocketDUT.Space().NewSet()
	var err error
	m.set("cov.merge_us_per_merge", median(timeEach(n, func(int) {
		if _, mergeErr := global.MergeWords(calc.Total().Snapshot()); mergeErr != nil {
			err = mergeErr
		}
	}, nil)))

	if err == nil && r.w.arms[0] == "chatfuzz-learn" {
		err = r.trainReplay(m, llm, tap, rocketRes, calc)
	}
	return err
}

// trainReplay times the learning plane on one batch's real rollouts:
// a PPO step on a clone of the model, and the fleet barrier — every
// replica trains on a batch, the results are averaged — at fleet size.
func (r *run) trainReplay(m *metricSet, llm *core.LLMGenerator, tap *rolloutTap, res []rtl.Result, calc *cov.Calculator) error {
	const reps = 3
	// One batch of rollouts, scored with real coverage results.
	llm.GenerateBatch(batchSize)
	scores := make([]cov.Scores, batchSize)
	calc.BeginBatch()
	for i := range scores {
		scores[i] = calc.Score(res[i%len(res)].Coverage)
	}
	llm.Feedback(scores)
	// StepRollouts writes advantages into the rollouts it is given, so
	// replicas training side by side each need their own.
	rolls := func() []*ppo.Rollout {
		out := make([]*ppo.Rollout, len(tap.rolls))
		for i, x := range tap.rolls {
			out[i] = &ppo.Rollout{Tokens: x.Tokens, PromptN: x.PromptN, LogpOld: x.LogpOld, Values: x.Values, Score: x.Score}
		}
		return out
	}

	trainer := ppo.NewTrainer(r.pipe.Model.Clone(), r.pipe.OnlinePPOConfig(), nil)
	m.set("ppo.step_ms_per_batch", median(timeEach(reps, func(int) { trainer.StepRollouts(rolls()) }, nil))/1e3)

	replicas := make([]*fleetlearn.Replica, shards)
	for i := range replicas {
		replicas[i] = fleetlearn.NewReplica(r.pipe.Model, r.pipe.OnlinePPOConfig())
	}
	fleet, err := fleetlearn.NewFleet(replicas...)
	if err != nil {
		return err
	}
	m.set("fleetlearn.barrier_ms_per_round", median(timeEach(reps, func(int) {
		for _, rep := range replicas {
			rep.StepRollouts(rolls())
		}
		fleet.Barrier(false, false)
	}, nil))/1e3)
	return nil
}
