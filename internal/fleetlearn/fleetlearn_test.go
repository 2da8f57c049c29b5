package fleetlearn

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"chatfuzz/internal/ml/nn"
	"chatfuzz/internal/ml/ppo"
)

func tinyBase(seed int64) *nn.GPT {
	cfg := nn.Config{Vocab: 12, Ctx: 16, Dim: 16, Heads: 2, Layers: 1}
	return nn.NewGPT(cfg, rand.New(rand.NewSource(seed)))
}

func tinyPPO() ppo.Config {
	cfg := ppo.DefaultConfig(1)
	cfg.LR = 1e-3
	return cfg
}

// roll builds a deterministic hand-crafted rollout (token ids < vocab).
func roll(score float64) *ppo.Rollout {
	return &ppo.Rollout{
		Tokens:  []int{0, 3, 4, 5},
		PromptN: 1,
		LogpOld: []float64{-1.1, -0.9, -1.3},
		Values:  []float64{0.1, 0.0, -0.1},
		Score:   score,
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// constVecs builds n length-k vectors filled with the given constants.
func constVecs(k int, vals ...float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, v := range vals {
		out[i] = make([]float64, k)
		for j := range out[i] {
			out[i][j] = v
		}
	}
	return out
}

// TestPairwiseMeanIsMean: the tournament reduction equals the exact
// mean on constants (any participant count, including odd tails at
// every level) and stays within float tolerance of the naive mean on
// arbitrary vectors.
func TestPairwiseMeanIsMean(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		want float64
	}{
		{"one", []float64{7}, 7},
		{"two", []float64{1, 3}, 2},
		{"three", []float64{1, 2, 3}, 2},
		{"four", []float64{1, 2, 3, 6}, 3},
		{"five (odd tail)", []float64{1, 2, 3, 4, 10}, 4},
		{"seven (odd at two levels)", []float64{1, 2, 3, 4, 5, 6, 7}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pairwiseMean(constVecs(4, tc.vals...))
			for i, v := range got {
				if math.Abs(v-tc.want) > 1e-12 {
					t.Fatalf("scalar %d = %v, want %v", i, v, tc.want)
				}
			}
		})
	}

	// Arbitrary vectors: agree with the naive mean to float tolerance,
	// and bit-identical across two runs over the same inputs.
	mk := func() [][]float64 {
		r := rand.New(rand.NewSource(9))
		vecs := make([][]float64, 5)
		for i := range vecs {
			vecs[i] = make([]float64, 32)
			for j := range vecs[i] {
				vecs[i][j] = r.NormFloat64()
			}
		}
		return vecs
	}
	in := mk()
	naive := make([]float64, 32)
	for _, v := range in {
		for j := range v {
			naive[j] += v[j] / float64(len(in))
		}
	}
	got1 := pairwiseMean(mk())
	got2 := pairwiseMean(mk())
	if !bitsEqual(got1, got2) {
		t.Fatal("pairwiseMean not bit-deterministic over identical inputs")
	}
	for j := range naive {
		if math.Abs(got1[j]-naive[j]) > 1e-12 {
			t.Fatalf("scalar %d: pairwise %v vs naive %v", j, got1[j], naive[j])
		}
	}
}

// TestStepRolloutsBuffers: stepping a replica buffers rollouts without
// touching any weights — the sampling model must stay bit-identical
// until a publication barrier, and the base model is never shared.
func TestStepRolloutsBuffers(t *testing.T) {
	base := tinyBase(5)
	baseFlat := base.FlattenParams(nil)
	a := NewReplica(base, tinyPPO())
	b := NewReplica(base, tinyPPO())

	a.StepRollouts([]*ppo.Rollout{roll(1.0)})
	a.StepRollouts([]*ppo.Rollout{roll(-0.5)})
	if !a.dirty {
		t.Fatal("stepped replica not marked dirty")
	}
	if b.dirty {
		t.Fatal("sibling replica marked dirty")
	}
	if got := len(a.pending); got != 2 {
		t.Fatalf("pending chunks = %d, want 2 (one per Feedback call)", got)
	}
	if !bitsEqual(a.Model.FlattenParams(nil), baseFlat) {
		t.Fatal("StepRollouts mutated the sampling model; updates must wait for the barrier")
	}
	if !bitsEqual(base.FlattenParams(nil), baseFlat) {
		t.Fatal("base model mutated by a replica step")
	}
	if a.StepRollouts(nil) != (ppo.Stats{}) {
		t.Fatal("empty step returned non-zero stats")
	}
}

// TestOneRoundLatePublication: weights trained at barrier N reach the
// sampling models at barrier N+1 — never earlier — and every replica
// receives the same published bits.
func TestOneRoundLatePublication(t *testing.T) {
	base := tinyBase(3)
	a, b := NewReplica(base, tinyPPO()), NewReplica(base, tinyPPO())
	f, err := NewFleet(a, b)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	start := f.Weights()

	a.StepRollouts([]*ppo.Rollout{roll(1.0)})
	b.StepRollouts([]*ppo.Rollout{roll(2.0)})
	if n := f.Barrier(false, false); n != 2 {
		t.Fatalf("barrier 1 participants = %d, want 2", n)
	}
	if !bitsEqual(f.Weights(), start) {
		t.Fatal("barrier 1 already changed the sampling weights; publication must be one round late")
	}
	staged := f.Staged()
	if staged == nil {
		t.Fatal("barrier 1 staged nothing")
	}
	if bitsEqual(staged, start) {
		t.Fatal("training produced no movement")
	}

	if n := f.Barrier(false, false); n != 0 {
		t.Fatalf("barrier 2 participants = %d, want 0", n)
	}
	if !bitsEqual(f.Weights(), staged) {
		t.Fatal("barrier 2 did not publish the staged merge")
	}
	if f.Staged() != nil {
		t.Fatal("staged merge not cleared after publication")
	}
	for i := 0; i < len(f.replicas); i++ {
		if !bitsEqual(f.Replica(i).Model.FlattenParams(nil), staged) {
			t.Fatalf("replica %d sampling model differs from the published merge", i)
		}
	}
}

// TestAsyncMatchesSync: the off-barrier (background goroutine) path
// must stage and publish bit-identical weights to the inline path —
// the invariant that lets Config.OffBarrier be a pure execution
// detail.
func TestAsyncMatchesSync(t *testing.T) {
	build := func(async bool) *Fleet {
		base := tinyBase(7)
		a, b, c := NewReplica(base, tinyPPO()), NewReplica(base, tinyPPO()), NewReplica(base, tinyPPO())
		a.StepRollouts([]*ppo.Rollout{roll(1.0)})
		c.StepRollouts([]*ppo.Rollout{roll(-0.5), roll(2.0)})
		f, err := NewFleet(a, b, c)
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		if n := f.Barrier(async, false); n != 2 {
			t.Fatalf("participants = %d, want 2", n)
		}
		// Second round of buffered work while the first may still be
		// training in the background.
		b.StepRollouts([]*ppo.Rollout{roll(0.25)})
		f.Barrier(async, false)
		f.Sync()
		return f
	}
	sync, async := build(false), build(true)
	if !bitsEqual(sync.Weights(), async.Weights()) {
		t.Fatal("published weights differ between sync and async barriers")
	}
	ss, as := sync.Staged(), async.Staged()
	if ss == nil || as == nil {
		t.Fatal("expected a staged merge on both paths")
	}
	if !bitsEqual(ss, as) {
		t.Fatal("staged weights differ between sync and async barriers")
	}
}

// TestSkipDiscardsBuffers: a budget-skipped barrier discards the
// round's rollouts without training, while still publishing any
// previously staged merge — earlier learning is never lost.
func TestSkipDiscardsBuffers(t *testing.T) {
	base := tinyBase(11)
	a, b := NewReplica(base, tinyPPO()), NewReplica(base, tinyPPO())
	f, _ := NewFleet(a, b)

	a.StepRollouts([]*ppo.Rollout{roll(1.0)})
	f.Barrier(false, false) // stages a merge
	staged := f.Staged()

	b.StepRollouts([]*ppo.Rollout{roll(2.0)})
	if n := f.Barrier(false, true); n != 1 {
		t.Fatalf("skipped barrier participants = %d, want 1", n)
	}
	if a.dirty || b.dirty || len(b.pending) != 0 {
		t.Fatal("skipped barrier left buffered rollouts behind")
	}
	if f.Staged() != nil {
		t.Fatal("skipped barrier trained anyway")
	}
	if !bitsEqual(f.Weights(), staged) {
		t.Fatal("skipped barrier failed to publish the previously staged merge")
	}
}

// TestSetWeightsRoundTrip: Weights/SetWeights and Staged/SetStaged must
// round-trip bit-exactly through the encoded form checkpoints use, and
// SetWeights must clear all in-progress learning state.
func TestSetWeightsRoundTrip(t *testing.T) {
	base := tinyBase(7)
	a := NewReplica(base, tinyPPO())
	a.StepRollouts([]*ppo.Rollout{roll(1.5)})
	f1, _ := NewFleet(a)
	f1.Barrier(false, false)
	wantStaged := f1.Staged()
	f1.Barrier(false, false)
	want := f1.Weights()

	dec := func(w []float64) []float64 {
		out, err := nn.DecodeWeights(nn.EncodeWeights(w))
		if err != nil {
			t.Fatalf("DecodeWeights: %v", err)
		}
		return out
	}
	f2, _ := NewFleet(NewReplica(tinyBase(7), tinyPPO()), NewReplica(tinyBase(7), tinyPPO()))
	f2.Replica(0).StepRollouts([]*ppo.Rollout{roll(9)}) // stale state SetWeights must clear
	if err := f2.SetWeights(dec(want)); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	if f2.Replica(0).dirty {
		t.Fatal("SetWeights kept buffered rollouts")
	}
	for i := 0; i < len(f2.replicas); i++ {
		if !bitsEqual(f2.Replica(i).Model.FlattenParams(nil), want) {
			t.Fatalf("replica %d not bit-exact after round trip", i)
		}
	}
	if err := f2.SetStaged(dec(wantStaged)); err != nil {
		t.Fatalf("SetStaged: %v", err)
	}
	if !bitsEqual(f2.Staged(), wantStaged) {
		t.Fatal("staged merge not bit-exact after round trip")
	}
	f2.Barrier(false, false)
	if !bitsEqual(f2.Weights(), wantStaged) {
		t.Fatal("restored staged merge was not published at the next barrier")
	}
	if err := f2.SetWeights(want[:10]); err == nil {
		t.Error("SetWeights accepted a short vector")
	}
	if err := f2.SetStaged(want[:10]); err == nil {
		t.Error("SetStaged accepted a short vector")
	}
}

// TestNewFleetValidates: empty fleets and mixed model shapes are
// construction errors, not latent averaging panics.
func TestNewFleetValidates(t *testing.T) {
	if _, err := NewFleet(); err == nil {
		t.Error("NewFleet accepted zero replicas")
	}
	small := NewReplica(tinyBase(1), tinyPPO())
	bigCfg := nn.Config{Vocab: 12, Ctx: 16, Dim: 32, Heads: 2, Layers: 1}
	big := NewReplica(nn.NewGPT(bigCfg, rand.New(rand.NewSource(1))), tinyPPO())
	if _, err := NewFleet(small, big); err == nil {
		t.Error("NewFleet accepted replicas with different model configs")
	}
	other := tinyPPO()
	other.LR *= 2
	if _, err := NewFleet(small, NewReplica(tinyBase(1), other)); err == nil {
		t.Error("NewFleet accepted replicas with different PPO configs")
	}
}

// goldenBarrierSHA runs TestGoldenBarrier's two barriers — three
// replicas, one idle, one with two buffered chunks — and returns the
// SHA-256 of the published and the staged weights.
func goldenBarrierSHA(t *testing.T) string {
	t.Helper()
	base := tinyBase(13)
	a, b, c := NewReplica(base, tinyPPO()), NewReplica(base, tinyPPO()), NewReplica(base, tinyPPO())
	f, err := NewFleet(a, b, c)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	a.StepRollouts([]*ppo.Rollout{roll(1.0), roll(-0.5)})
	c.StepRollouts([]*ppo.Rollout{roll(2.0)})
	c.StepRollouts([]*ppo.Rollout{roll(0.25), roll(0.5), roll(-1)})
	f.Barrier(false, false)
	b.StepRollouts([]*ppo.Rollout{roll(0.75)})
	f.Barrier(false, false)
	sum := sha256.Sum256([]byte(nn.EncodeWeights(f.Weights()) + nn.EncodeWeights(f.Staged())))
	return hex.EncodeToString(sum[:])
}

// goldenBarrier is goldenBarrierSHA's hash recorded on the full-row PPO
// formulation.
const goldenBarrier = "f7cb4a5672d4723346d49301608380f8726033e01ce641165d8d8fd36655ad8b"

// TestGoldenBarrier pins the barrier's training and merge bit for bit:
// the SHA-256 of the staged merge of three replicas (one idle, one
// with two buffered chunks) and of the following round's publication,
// recorded on the full-row PPO formulation. CI runs it under
// GOMAXPROCS=1 and 4.
func TestGoldenBarrier(t *testing.T) {
	if got := goldenBarrierSHA(t); got != goldenBarrier {
		t.Errorf("published+staged weights: sha256 %s, want %s", got, goldenBarrier)
	}
}

// TestBarrierBitExactAcrossWorkers: the barrier trains its participants
// on min(GOMAXPROCS, participants) workers, so one worker trains both
// participants of the first barrier under GOMAXPROCS 1 — reusing its
// arena and resetting its optimizer in between — and each its own
// under 2 and more. The merge must not tell them apart.
func TestBarrierBitExactAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		if got := goldenBarrierSHA(t); got != goldenBarrier {
			t.Errorf("GOMAXPROCS %d: published+staged weights: sha256 %s, want %s", procs, got, goldenBarrier)
		}
	}
}

// TestReplicaRefStaysFrozen: the KL reference is detached at
// construction and a worker's training pass against it leaves it so —
// no parameter requires gradients or grew a Grad buffer — while the
// worker's training model, cloned from the sampling model, stays
// trainable.
func TestReplicaRefStaysFrozen(t *testing.T) {
	base := tinyBase(17)
	r := NewReplica(base, tinyPPO())
	tr := newWorker(r.Model, r.cfg)
	trainOn(tr, r, base.FlattenParams(nil), [][]*ppo.Rollout{{roll(1.0), roll(-0.5)}})
	for i, p := range r.ref.Params() {
		if p.Requires() || p.Grad != nil {
			t.Fatalf("ref parameter %d after trainOn: requires=%v, grad buffer=%v", i, p.Requires(), p.Grad != nil)
		}
	}
	for i, p := range tr.Policy.Params() {
		if !p.Requires() {
			t.Fatalf("training model parameter %d does not require gradients", i)
		}
	}
	if !bitsEqual(r.ref.FlattenParams(nil), base.FlattenParams(nil)) {
		t.Fatal("reference drifted from the base model")
	}
}
