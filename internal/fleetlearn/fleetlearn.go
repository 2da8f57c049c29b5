// Package fleetlearn implements online fleet learning for sharded
// fuzzing campaigns: per-shard PPO model replicas trained off the
// round-critical path, merged by a deterministic pairwise averaging
// schedule, and published one round late.
//
// The paper's central claim is that the input model keeps learning
// from hardware feedback, but a sharded fleet cannot share one
// mutable model — concurrent shards would race on the weights and a
// resumed run could not replay the updates. Fleet learning resolves
// this the way federated averaging does (McMahan et al.: local steps
// on replicas, periodic parameter averaging), specialised to the
// orchestrator's determinism contract and — since the PPO update is
// the one cost no execution scheduler can steal — restructured so the
// update never sits on a shard's critical path:
//
//   - Replica: each shard that schedules the LLM arm owns a sampling
//     copy of the trained model and a frozen KL reference. During a
//     round the shard samples programs from the sampling model and
//     buffers the scored rollouts; no optimisation happens inside the
//     round, so a shard-round costs generation + simulation only.
//   - Fleet barrier: at every orchestrator barrier — single-threaded,
//     replicas visited in fixed shard order — the fleet (1) joins the
//     training launched at the previous barrier, (2) publishes that
//     merge to every replica's sampling model, and (3) launches this
//     round's training: each participant's buffer is replayed into a
//     training model, starting from the weights its rollouts were
//     sampled under, and the results are reduced by a fixed-order
//     pairwise (tournament / hypercube) averaging schedule. Launched
//     training may run on a background goroutine, overlapped with the
//     next round's simulation, or inline — the bits are identical
//     either way.
//   - Workers: the training models belong to the fleet's workers, as
//     many as there are cores or participants, whichever is fewer.
//     A worker trains its participants one after another on one model
//     and one trainer, whose arena (tensor.Arena) holds every tape, so
//     a barrier's memory grows with the cores, not the shards. Before
//     each participant it loads the start weights and resets the
//     optimizer, so no participant's result depends on the worker
//     count or on what its worker trained before.
//
// The one-round-late publication invariant: weights trained on round
// N's rollouts are merged into the fleet at barrier N and published
// to the sampling models at barrier N+1, so round N+2 is the first
// round that samples them. Every quantity involved — the rollouts,
// the training start point, the pairwise reduction order — is a pure
// function of the campaign seeds and the shard order, which keeps
// trajectories bit-identical across the synchronous and off-barrier
// execution modes and across checkpoint/resume.
//
// Determinism and checkpointing: between rounds the entire learning
// state collapses to two flat vectors — the published weights every
// sampling model holds, and the staged (trained-but-unpublished)
// merge awaiting the next barrier. A campaign checkpoint carries both
// (bit-exact, via nn.EncodeWeights), so a fleet paused mid-lag —
// after a publication, with the next merge still in flight — resumes
// bit-identically: Sync joins any in-flight training first, and no
// wall-clock, RNG or optimizer state needs to survive the pause
// (training always starts from an explicit start vector with the
// optimizer reset).
//
//chatfuzz:deterministic package
package fleetlearn

import (
	"fmt"
	"runtime"
	"sync"

	"chatfuzz/internal/ml/nn"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/telemetry"
)

// Replica is one shard's view of the policy model: a sampling model
// the shard's generator reads, a frozen KL reference, and the rollouts
// it buffers for the fleet barrier, where one of the fleet's workers
// replays them. It implements core.RolloutSink, so it plugs directly
// into an LLM generator built with core.NewReplicaGenerator. A Replica
// is not goroutine-safe; the owning shard is the only writer between
// barriers.
type Replica struct {
	// Model is the replica's sampling model: read by the shard's
	// generator during rounds, overwritten by barrier publication. It
	// is never trained in place — updates land on a worker's training
	// model and reach Model only through the published merge.
	Model *nn.GPT

	ref *nn.GPT // frozen KL reference (copy of the base model)
	cfg ppo.Config

	// pending buffers the round's scored rollouts, one chunk per
	// Feedback call, preserving the per-batch update cadence when the
	// chunks are replayed at the barrier.
	pending [][]*ppo.Rollout
	dirty   bool // buffered rollouts since the last collection
}

// NewReplica deep-copies base into a fresh replica. The base model is
// never mutated: the sampling model and the KL reference are both
// independent clones, the reference frozen so that its forward pass
// at every barrier builds no gradient buffers.
func NewReplica(base *nn.GPT, cfg ppo.Config) *Replica {
	return &Replica{Model: base.Clone(), ref: base.Clone().Freeze(), cfg: cfg}
}

// StepRollouts buffers one batch's scored rollouts for the barrier
// training pass and marks the replica as a round participant. No
// optimisation happens here — that is the whole point of the
// off-barrier learning plane — so the returned stats are zero.
// Implements core.RolloutSink.
func (r *Replica) StepRollouts(rolls []*ppo.Rollout) ppo.Stats {
	if len(rolls) == 0 {
		return ppo.Stats{}
	}
	r.dirty = true
	r.pending = append(r.pending, rolls)
	return ppo.Stats{}
}

// takePending returns and clears the buffered rollout chunks.
func (r *Replica) takePending() [][]*ppo.Rollout {
	out := r.pending
	r.pending = nil
	r.dirty = false
	return out
}

// newWorker builds a trainer for one of the fleet's workers: it trains
// a clone of model under cfg, replica after replica, for the life of
// the fleet, so a barrier's memory — the trainer's arena and Adam
// state — grows with the number of workers, not of replicas.
func newWorker(model *nn.GPT, cfg ppo.Config) *ppo.Trainer {
	return ppo.NewTrainerWithRef(model.Clone(), nil, cfg, nil)
}

// trainOn replays r's buffered chunks into the worker trainer tr's
// model, starting from the weights the rollouts were sampled under and
// against r's frozen reference, and returns the resulting flat
// parameter vector. Each call first resets the optimizer (zero moments,
// step 0), so the result is a pure function of (start, chunks) — which
// worker ran it and what it ran before do not reach it, and no
// optimizer moments survive between barriers, which is what lets
// checkpoints carry weights alone.
func trainOn(tr *ppo.Trainer, r *Replica, start []float64, chunks [][]*ppo.Rollout) []float64 {
	if err := tr.Policy.SetFlatParams(start); err != nil {
		// Sizes were validated at fleet construction; a mismatch here
		// is a programming error, not an input error.
		panic("fleetlearn: train start: " + err.Error())
	}
	tr.Opt.Reset()
	tr.Ref = r.ref
	for _, rolls := range chunks {
		tr.StepRollouts(rolls)
	}
	return tr.Policy.FlattenParams(nil)
}

// setSampling assigns a flat weight vector to the sampling model.
func (r *Replica) setSampling(w []float64) error {
	return r.Model.SetFlatParams(w)
}

// Fleet aggregates the replicas of one learning arm across all shards
// and runs the staged barrier schedule: join the previous round's
// training, publish its merge, launch this round's training. Replica
// order is fixed at construction (shard order); collection, training
// fan-out and the pairwise reduction all iterate in that order, which
// makes the merged bits a pure function of the replicas' buffers and
// start weights.
type Fleet struct {
	replicas []*Replica
	n        int // parameter count, for resume-path validation

	// workers are the trainers of a barrier's participants: as many
	// as the largest min(GOMAXPROCS, participants) seen, built at the
	// barrier and touched only by its (possibly background) training
	// task.
	workers []*ppo.Trainer

	// Track, when non-nil, records one "train" span per barrier
	// training pass — on the barrier or overlapped with the next
	// round, wherever the task actually ran. Set it before the first
	// Barrier (the orchestrator does, from its recorder). Execution-
	// only: spans never reach the staged weights or checkpoints.
	Track *telemetry.Track

	// staged is the joined-but-unpublished merge: trained on round
	// N's rollouts, published to the sampling models at barrier N+1.
	staged []float64
	// inflight carries an unjoined background training result
	// (buffered, so an abandoned task never leaks a goroutine).
	inflight chan []float64
}

// NewFleet builds a fleet over replicas in shard order. All replicas
// must share one model configuration and one PPO configuration: the
// fleet's workers train any replica.
func NewFleet(replicas ...*Replica) (*Fleet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("fleetlearn: a fleet needs at least one replica")
	}
	cfg, pcfg := replicas[0].Model.Cfg, replicas[0].cfg
	for i, r := range replicas[1:] {
		if r.Model.Cfg != cfg {
			return nil, fmt.Errorf("fleetlearn: replica %d config %+v differs from replica 0 %+v", i+1, r.Model.Cfg, cfg)
		}
		if r.cfg != pcfg {
			return nil, fmt.Errorf("fleetlearn: replica %d PPO config %+v differs from replica 0 %+v", i+1, r.cfg, pcfg)
		}
	}
	return &Fleet{replicas: replicas, n: nn.NumParamsOf(cfg)}, nil
}

// Replica returns the i-th replica (shard order).
func (f *Fleet) Replica(i int) *Replica { return f.replicas[i] }

// Barrier runs one staged learning step; the caller (the orchestrator
// barrier) is single-threaded and no shard may be mid-round.
//
//  1. The round's buffered rollouts are collected from every dirty
//     replica, and the current sampling weights — the ones those
//     rollouts were generated under — are snapshotted as the training
//     start point.
//  2. The training launched at the previous barrier is joined and its
//     merge published to every replica's sampling model (one round
//     late, per the package invariant).
//  3. Unless skip is set or no replica participated, this round's
//     training is launched: every participant replays its buffer from
//     the snapshot and the results reduce under pairwiseMean. W =
//     min(GOMAXPROCS, participants) workers train in parallel, worker
//     k the participants k, k+W, … in shard order; each result is a
//     pure function of the snapshot and the buffer, so the merge does
//     not depend on W. With
//     async the task runs on a background goroutine, overlapped with
//     the next round's simulation; otherwise it runs inline. The
//     resulting bits are identical — only wall-clock placement
//     differs.
//
// skip implements adaptive update budgets: the round's buffers are
// discarded without training (the fleet's coverage has plateaued, and
// a skipped step saves its host wall-clock; the virtual clock charges
// simulated tests only), while joining and publication still advance
// so earlier training is never lost. Returns the number of participating
// replicas whose buffers were collected.
func (f *Fleet) Barrier(async, skip bool) int {
	var parts []*Replica
	var bufs [][][]*ppo.Rollout
	for _, r := range f.replicas {
		if !r.dirty {
			continue
		}
		parts = append(parts, r)
		bufs = append(bufs, r.takePending())
	}
	var start []float64
	if len(parts) > 0 && !skip {
		start = f.replicas[0].Model.FlattenParams(nil)
	}

	f.join()
	if f.staged != nil {
		f.publish(f.staged)
		f.staged = nil
	}

	if skip || len(parts) == 0 {
		return len(parts)
	}
	workers := f.workersFor(len(parts))
	task := func() []float64 {
		t := f.Track.Start()
		outs := make([][]float64, len(parts))
		var wg sync.WaitGroup
		for k, tr := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := k; i < len(parts); i += len(workers) {
					outs[i] = trainOn(tr, parts[i], start, bufs[i])
				}
			}()
		}
		wg.Wait()
		merged := pairwiseMean(outs)
		f.Track.Span(telemetry.SpanTrain, t)
		return merged
	}
	if async {
		f.inflight = make(chan []float64, 1)
		go func() { f.inflight <- task() }()
	} else {
		f.staged = task()
	}
	return len(parts)
}

// workersFor returns the trainers of the min(GOMAXPROCS, participants)
// workers that train a barrier's participants, building any the fleet
// lacks. Runs on the barrier, before the training task it hands them
// to.
func (f *Fleet) workersFor(participants int) []*ppo.Trainer {
	n := min(runtime.GOMAXPROCS(0), participants)
	for len(f.workers) < n {
		f.workers = append(f.workers, newWorker(f.replicas[0].Model, f.replicas[0].cfg))
	}
	return f.workers[:n]
}

// join blocks until any in-flight background training completes and
// stages its result.
func (f *Fleet) join() {
	if f.inflight != nil {
		f.staged = <-f.inflight
		f.inflight = nil
	}
}

// Sync joins any in-flight background training without publishing, so
// the fleet's state collapses to the two checkpointable vectors
// (published sampling weights + staged merge). Callers checkpoint or
// close between rounds, never mid-round.
func (f *Fleet) Sync() { f.join() }

// publish assigns the merged weights to every replica's sampling
// model.
func (f *Fleet) publish(w []float64) {
	for _, r := range f.replicas {
		if err := r.setSampling(w); err != nil {
			// Config equality was validated at construction; a size
			// mismatch here is a programming error, not an input error.
			panic("fleetlearn: publish: " + err.Error())
		}
	}
}

// Weights returns a copy of the fleet's current published weights.
// Valid between rounds, where every replica's sampling model holds
// the same published vector.
func (f *Fleet) Weights() []float64 {
	return f.replicas[0].Model.FlattenParams(nil)
}

// Staged returns a copy of the trained-but-unpublished merge, or nil
// when none is staged. Call Sync first so an in-flight background
// task is included.
func (f *Fleet) Staged() []float64 {
	if f.staged == nil {
		return nil
	}
	out := make([]float64, len(f.staged))
	copy(out, f.staged)
	return out
}

// SetWeights publishes an explicit weight vector to every replica and
// clears all staged and buffered state — the resume path, restoring a
// checkpoint's published weights.
func (f *Fleet) SetWeights(w []float64) error {
	if len(w) != f.n {
		return fmt.Errorf("fleetlearn: weight vector has %d scalars, want %d", len(w), f.n)
	}
	f.join()
	f.staged = nil
	for i, r := range f.replicas {
		r.pending = nil
		r.dirty = false
		if err := r.setSampling(w); err != nil {
			return fmt.Errorf("fleetlearn: replica %d: %w", i, err)
		}
	}
	return nil
}

// SetStaged restores a checkpoint's trained-but-unpublished merge; the
// next Barrier publishes it, exactly as the uninterrupted run would
// have.
func (f *Fleet) SetStaged(w []float64) error {
	if len(w) != f.n {
		return fmt.Errorf("fleetlearn: staged vector has %d scalars, want %d", len(w), f.n)
	}
	f.join()
	f.staged = make([]float64, len(w))
	copy(f.staged, w)
	return nil
}

// pairwiseMean reduces the participant weight vectors with a
// fixed-order pairwise (tournament / hypercube gossip) schedule:
// neighbours merge level by level, each merge weighted by how many
// originals it already aggregates, so the result equals the exact
// mean in real arithmetic while the float rounding is a pure function
// of the participant order. Compared with the sum-all-then-divide it
// replaces, every merge touches operands of similar magnitude — the
// accumulation pattern a distributed fleet would use to average
// without an all-to-one reduction. The input vectors are consumed as
// scratch.
func pairwiseMean(vecs [][]float64) []float64 {
	if len(vecs) == 1 {
		return vecs[0]
	}
	weights := make([]float64, len(vecs))
	for i := range weights {
		weights[i] = 1
	}
	for len(vecs) > 1 {
		half := (len(vecs) + 1) / 2
		for i := 0; i+1 < len(vecs); i += 2 {
			a, b := vecs[i], vecs[i+1]
			wa, wb := weights[i], weights[i+1]
			tw := wa + wb
			for j := range a {
				a[j] = (wa*a[j] + wb*b[j]) / tw
			}
			vecs[i/2], weights[i/2] = a, tw
		}
		if len(vecs)%2 == 1 {
			vecs[half-1], weights[half-1] = vecs[len(vecs)-1], weights[len(vecs)-1]
		}
		vecs, weights = vecs[:half], weights[:half]
	}
	return vecs[0]
}
