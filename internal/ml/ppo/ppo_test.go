package ppo

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"chatfuzz/internal/ml/nn"
)

func tinyModel(seed int64) (*nn.GPT, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	cfg := nn.Config{Vocab: 12, Ctx: 24, Dim: 24, Heads: 2, Layers: 2}
	return nn.NewGPT(cfg, rng), rng
}

// TestRewardIncreasesOnBandit trains the policy to emit a specific
// token: reward = count of token 7 in the generation. Mean reward must
// rise substantially — the canonical PPO smoke test.
func TestRewardIncreasesOnBandit(t *testing.T) {
	m, rng := tinyModel(1)
	cfg := DefaultConfig(1 /*eos*/)
	cfg.MaxNewTokens = 8
	cfg.KLCoef = 0.02
	cfg.LR = 1e-3
	tr := NewTrainer(m, cfg, rng)

	reward := func(tokens []int, promptN int) float64 {
		score := 0.0
		for _, id := range tokens[promptN:] {
			if id == 7 {
				score++
			}
		}
		return score
	}
	prompts := [][]int{{0, 5}, {0, 6}, {0, 8}, {0, 9}}

	var early, late float64
	const steps = 40
	for i := 0; i < steps; i++ {
		st := tr.Step(prompts, reward)
		if i < 5 {
			early += st.MeanReward / 5
		}
		if i >= steps-5 {
			late += st.MeanReward / 5
		}
	}
	if late <= early+0.5 {
		t.Errorf("PPO failed to improve reward: early %.2f late %.2f", early, late)
	}
}

func TestKLStaysFiniteAndMonitored(t *testing.T) {
	m, rng := tinyModel(2)
	cfg := DefaultConfig(1)
	cfg.MaxNewTokens = 6
	tr := NewTrainer(m, cfg, rng)
	reward := func(tokens []int, promptN int) float64 { return 1 }
	for i := 0; i < 10; i++ {
		st := tr.Step([][]int{{0, 3}, {0, 4}}, reward)
		if math.IsNaN(st.MeanKL) || math.IsInf(st.MeanKL, 0) {
			t.Fatalf("step %d: KL = %v", i, st.MeanKL)
		}
		if math.IsNaN(st.PolicyLoss) || math.IsNaN(st.ValueLoss) {
			t.Fatalf("step %d: NaN loss", i)
		}
	}
}

func TestKLPenaltyRestrainsDrift(t *testing.T) {
	// With a huge KL coefficient and zero task reward, the policy
	// should stay close to the reference: KL remains small.
	m, rng := tinyModel(3)
	cfg := DefaultConfig(1)
	cfg.MaxNewTokens = 6
	cfg.KLCoef = 5.0
	tr := NewTrainer(m, cfg, rng)
	reward := func(tokens []int, promptN int) float64 { return 0 }
	var klLast float64
	for i := 0; i < 15; i++ {
		st := tr.Step([][]int{{0, 3}, {0, 4}, {0, 5}}, reward)
		klLast = st.MeanKL
	}
	if math.Abs(klLast) > 0.5 {
		t.Errorf("KL drifted to %.3f despite strong penalty", klLast)
	}
}

func TestValueHeadLearnsConstantReward(t *testing.T) {
	// With constant terminal reward, the value loss should shrink as
	// the critic learns the return.
	m, rng := tinyModel(4)
	cfg := DefaultConfig(1)
	cfg.MaxNewTokens = 5
	cfg.KLCoef = 0
	cfg.LR = 2e-3
	tr := NewTrainer(m, cfg, rng)
	reward := func(tokens []int, promptN int) float64 { return 3 }
	var first, last float64
	for i := 0; i < 30; i++ {
		st := tr.Step([][]int{{0, 3}, {0, 7}}, reward)
		if i == 0 {
			first = st.ValueLoss
		}
		last = st.ValueLoss
	}
	if last >= first {
		t.Errorf("value loss did not decrease: first %.3f last %.3f", first, last)
	}
}

func TestStatsShape(t *testing.T) {
	m, rng := tinyModel(5)
	cfg := DefaultConfig(1)
	cfg.MaxNewTokens = 4
	tr := NewTrainer(m, cfg, rng)
	st := tr.Step([][]int{{0, 3}}, func(tokens []int, promptN int) float64 { return 1 })
	if st.MeanLen <= 0 || st.MeanLen > 4 {
		t.Errorf("MeanLen = %v", st.MeanLen)
	}
	if st.ClipFrac < 0 || st.ClipFrac > 1 {
		t.Errorf("ClipFrac = %v", st.ClipFrac)
	}
	if st.MeanReward != 1 {
		t.Errorf("MeanReward = %v, want 1", st.MeanReward)
	}
}

func TestReferenceModelFrozen(t *testing.T) {
	m, rng := tinyModel(6)
	cfg := DefaultConfig(1)
	cfg.MaxNewTokens = 4
	tr := NewTrainer(m, cfg, rng)
	refBefore := append([]float64(nil), tr.Ref.TokEmb.Data...)
	for i := 0; i < 5; i++ {
		tr.Step([][]int{{0, 3}}, func(tokens []int, promptN int) float64 { return 1 })
	}
	for i, v := range tr.Ref.TokEmb.Data {
		if v != refBefore[i] {
			t.Fatal("reference model was mutated by training")
		}
	}
	for i, p := range tr.Ref.Params() {
		if p.Requires() || p.Grad != nil {
			t.Fatalf("reference parameter %d is not frozen: requires=%v, grad buffer=%v", i, p.Requires(), p.Grad != nil)
		}
	}
	// And the policy itself must have moved.
	moved := false
	for i, v := range tr.Policy.TokEmb.Data {
		if v != tr.Ref.TokEmb.Data[i] {
			moved = true
			break
		}
		_ = i
	}
	if !moved {
		t.Error("policy parameters did not change")
	}
}

// TestTrainerWithSharedRefUpdatesOnlyPolicy: a trainer built over an
// explicit (policy, ref) pair — the fleet-replica construction — must
// optimise the policy while leaving the reference bit-untouched, and
// StepRollouts must work with a nil rng (replicas never call Step).
func TestTrainerWithExplicitRef(t *testing.T) {
	base, rng := tinyModel(21)
	policy := base.Clone()
	ref := base.Clone()
	tr := NewTrainerWithRef(policy, ref, DefaultConfig(1), nil)

	// Collect rollouts with a seeded rng, then feed them through the
	// rng-free update path.
	res := nn.NewSampler(policy).Generate(rng, []int{0, 3}, 6, 1.0, 0, 1, true)
	if len(res.Tokens) == res.PromptN {
		t.Skip("nothing generated")
	}
	st := tr.StepRollouts([]*Rollout{FromGeneration(res, 1.0)})
	if st.MeanReward != 1.0 {
		t.Errorf("mean reward %v, want 1", st.MeanReward)
	}

	refFlat, baseFlat := ref.FlattenParams(nil), base.FlattenParams(nil)
	for i := range refFlat {
		if refFlat[i] != baseFlat[i] {
			t.Fatal("reference model drifted during the update")
		}
	}
	polFlat := policy.FlattenParams(nil)
	moved := false
	for i := range polFlat {
		if polFlat[i] != baseFlat[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("policy did not move after StepRollouts")
	}
}

// goldenRollouts samples a fixed-seed batch of mixed-length rollouts
// (prompts of 2, 3 and 5 tokens, generation budgets 3 to 14) from m.
func goldenRollouts(m *nn.GPT, rng *rand.Rand) []*Rollout {
	prompts := [][]int{{0, 5}, {0, 6, 3}, {0, 8, 4, 9, 3}, {0, 9}, {0, 4, 7}, {0, 3}}
	budgets := []int{3, 14, 9, 12, 5, 14}
	var rolls []*Rollout
	for i, p := range prompts {
		res := nn.NewSampler(m).Generate(rng, p, budgets[i], 1.0, 0, 1, true)
		rolls = append(rolls, FromGeneration(res, float64(i%3)-0.5))
	}
	return rolls
}

func weightsSHA(m *nn.GPT) string {
	sum := sha256.Sum256([]byte(nn.EncodeWeights(m.FlattenParams(nil))))
	return hex.EncodeToString(sum[:])
}

// TestGoldenStepRollouts pins the PPO update bit for bit: the SHA-256
// of the policy's parameters after three StepRollouts on one fixed
// batch was recorded on the full-row formulation (LM head, softmax and
// loss over every padded row, triple-loop matmul) and every later
// formulation must reproduce it. The second and third steps replay
// the batch against a policy that has moved, so ratios leave 1 and
// clipped (all-zero gradient) rows occur. CI runs it under
// GOMAXPROCS=1 and 4: the matmul row split must not reach the result.
func TestGoldenStepRollouts(t *testing.T) {
	const want = "5b056a8b53e4cfc4957349e8493d445146acedade910076752921c9f0ea18d9c"
	m, rng := tinyModel(31)
	cfg := DefaultConfig(1)
	cfg.LR = 1e-3
	tr := NewTrainer(m, cfg, nil)
	rolls := goldenRollouts(m, rng)
	lens := map[int]bool{}
	for _, r := range rolls {
		lens[len(r.Tokens)] = true
	}
	if len(lens) < 3 {
		t.Fatalf("batch is not mixed-length: %v", lens)
	}
	var clip float64
	for step := 0; step < 3; step++ {
		batch := make([]*Rollout, len(rolls))
		for i, r := range rolls {
			batch[i] = &Rollout{Tokens: r.Tokens, PromptN: r.PromptN, LogpOld: r.LogpOld, Values: r.Values, Score: r.Score}
		}
		clip += tr.StepRollouts(batch).ClipFrac
	}
	if clip == 0 {
		t.Error("no step clipped a ratio: the batch does not exercise zero-gradient rows")
	}
	if got := weightsSHA(m); got != want {
		t.Errorf("policy after 3 StepRollouts: sha256 %s, want %s", got, want)
	}
}

// TestStepRolloutsDropsEmptyRollouts: a rollout with no generated
// token (FromGeneration of a context-exhausted result) used to index
// rewards[-1]. It is dropped: a mixed batch trains exactly as the
// batch without it, and an all-empty batch is a no-op with zero Stats.
func TestStepRolloutsDropsEmptyRollouts(t *testing.T) {
	base, rng := tinyModel(22)
	empty := func() *Rollout {
		return FromGeneration(nn.GenerateResult{Tokens: []int{0, 3, 4}, PromptN: 3}, 5)
	}
	var full []nn.GenerateResult
	for _, p := range [][]int{{0, 3}, {0, 4, 5}} {
		full = append(full, nn.NewSampler(base).Generate(rng, p, 6, 1.0, 0, -1, true))
	}
	train := func(withEmpty bool) (Stats, []float64) {
		m := base.Clone()
		tr := NewTrainer(m, DefaultConfig(1), nil)
		var rolls []*Rollout
		for i, res := range full {
			if withEmpty {
				rolls = append(rolls, empty())
			}
			rolls = append(rolls, FromGeneration(res, float64(i)))
		}
		if withEmpty {
			rolls = append(rolls, empty())
		}
		return tr.StepRollouts(rolls), m.FlattenParams(nil)
	}
	wantStats, want := train(false)
	gotStats, got := train(true)
	if gotStats != wantStats {
		t.Errorf("stats with empty rollouts %+v, without %+v", gotStats, wantStats)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("parameter %d differs when empty rollouts ride along", i)
		}
	}

	m := base.Clone()
	tr := NewTrainer(m, DefaultConfig(1), nil)
	if st := tr.StepRollouts([]*Rollout{empty(), empty()}); st != (Stats{}) {
		t.Errorf("all-empty batch returned %+v, want zero Stats", st)
	}
	after, before := m.FlattenParams(nil), base.FlattenParams(nil)
	for i := range before {
		if after[i] != before[i] {
			t.Fatal("all-empty batch moved the policy")
		}
	}
}

// TestStepRolloutsRejectsMalformedRollouts: Rollout is an exported
// struct callers fill field by field, and StepRollouts indexes rows by
// its shape. A rollout with generated tokens but no prompt scored row
// -1 — a panic deep in the gather for the first rollout, silently the
// previous rollout's last row for any other — so shapes Generate cannot
// produce are refused by name before anything is computed.
func TestStepRolloutsRejectsMalformedRollouts(t *testing.T) {
	base, rng := tinyModel(23)
	good := func() *Rollout {
		return FromGeneration(nn.NewSampler(base).Generate(rng, []int{0, 3}, 4, 1.0, 0, -1, true), 1)
	}
	for _, c := range []struct {
		name   string
		mangle func(r *Rollout)
	}{
		{"no prompt", func(r *Rollout) { r.PromptN = 0 }},
		{"generated tokens past Tokens", func(r *Rollout) { r.Tokens = r.Tokens[:len(r.Tokens)-1] }},
		{"fewer values than log-probs", func(r *Rollout) { r.Values = r.Values[:len(r.Values)-1] }},
		{"more values than log-probs", func(r *Rollout) { r.Values = append(r.Values, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := base.Clone()
			tr := NewTrainer(m, DefaultConfig(1), nil)
			bad := good()
			c.mangle(bad)
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "ppo: rollout 1 is malformed") {
					t.Errorf("recovered %q, want a message naming rollout 1", msg)
				}
				after, before := m.FlattenParams(nil), base.FlattenParams(nil)
				for i := range before {
					if after[i] != before[i] {
						t.Fatal("a refused batch moved the policy")
					}
				}
			}()
			tr.StepRollouts([]*Rollout{good(), bad, good()})
			t.Fatal("no panic")
		})
	}
}

// TestStepRolloutsReusesItsTape: every tape of a step lives in the
// trainer's arena, so once a first step has sized it, a step on a batch
// no larger allocates next to nothing — the Go values of the tape and
// the rollouts' statistics, not its float64 buffers. The batch is
// BenchmarkPPOStep's kind at the test-scale model's shape: sixteen
// mixed-length rollouts over a 512-token vocabulary.
func TestStepRolloutsReusesItsTape(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := nn.NewGPT(nn.Config{Vocab: 512, Ctx: 48, Dim: 32, Heads: 2, Layers: 2}, rng)
	var rolls []*Rollout
	for i := 0; i < 16; i++ {
		prompt := []int{0}
		for j := 0; j < 2+i%4; j++ {
			prompt = append(prompt, 2+rng.Intn(510))
		}
		rolls = append(rolls, FromGeneration(nn.NewSampler(m).Generate(rng, prompt, 8+2*i, 1.0, 0, 1, true), float64(i%3)-0.5))
	}
	batch := func() []*Rollout {
		out := make([]*Rollout, len(rolls))
		for i, r := range rolls {
			out[i] = &Rollout{Tokens: r.Tokens, PromptN: r.PromptN, LogpOld: r.LogpOld, Values: r.Values, Score: r.Score}
		}
		return out
	}
	tr := NewTrainer(m, DefaultConfig(1), nil)
	tr.StepRollouts(batch())
	next := batch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.StepRollouts(next)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a step on a sized arena allocated %d bytes", got)
	if got >= 1<<20 {
		t.Errorf("a step on a sized arena allocated %d bytes, want under 1 MB", got)
	}
}
