package chatfuzz_test

import (
	"bytes"
	"fmt"
	"log"
	"slices"

	"chatfuzz"
)

// Train a small pipeline, fuzz Rocket as a one-shard fleet whose model
// keeps learning from coverage, and print the coverage, the detector's
// findings and how many condition points still have an unhit bin. A
// realistic run starts from DefaultPipelineConfig; `fuzz-bench campaign
// -shards 1 -arms chatfuzz-learn -detect` runs this loop from the
// command line.
func Example() {
	p := chatfuzz.NewPipeline(chatfuzz.TestPipelineConfig())
	p.Pretrain()
	p.Cleanup()
	fmt.Printf("invalid-instruction rate: %.1f%%\n", 100*p.InvalidRate(20))

	// Swap in chatfuzz.NewBoom to fuzz the out-of-order core instead.
	rocket := []func() chatfuzz.DUT{chatfuzz.NewRocket}
	o, err := chatfuzz.NewOrchestrator(
		chatfuzz.CampaignConfig{Shards: 1, BatchSize: 16, Seed: 1, Detect: true},
		rocket, chatfuzz.LearningLLMArm(p))
	if err != nil {
		log.Fatal(err)
	}
	defer o.Close()
	if err := o.RunTests(320); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("condition coverage: %.2f%% after %d tests (%.1f virtual minutes)\n",
		o.Coverage(), o.Tests(), o.Hours()*60)
	fmt.Print(o.Shard(0).Det.Report())
	fmt.Printf("condition points with an unhit bin: %d\n", len(o.Shard(0).Calc.Total().UncoveredPoints()))
	// Output:
	// invalid-instruction rate: 55.5%
	// condition coverage: 59.60% after 320 tests (6.8 virtual minutes)
	// mismatch detection over 320 tests
	//   raw mismatches:        1850 (0 filtered as false positives)
	//   unique signatures:     16 (16 after filtration)
	//   classified findings:
	//     [x] Bug1: FENCE.I cache coherency (CWE-1202)              2 instances
	//     [x] Bug2: tracer omits MUL/DIV rd write (CWE-440)      1803 instances
	//     [x] Finding1: exception priority inversion                9 instances
	//     [ ] Finding2: AMO with rd=x0 in trace                     0 instances
	//     [ ] Finding3: trace write to x0                           0 instances
	// condition points with an unhit bin: 242
}

// A learning fleet against the same fleet with the LLM arm frozen, at
// equal virtual time; then a checkpoint of the learning fleet and a
// resume from it, which continues with the merged weights bit for bit.
// The resume needs the same trained pipeline: the checkpoint carries
// the weights, and the pipeline reproduces the KL reference model.
func ExampleResumeCampaign() {
	p := chatfuzz.NewPipeline(chatfuzz.TestPipelineConfig())
	p.Pretrain()
	p.Cleanup()
	body := p.Cfg.BodyInstrs

	ccfg := chatfuzz.CampaignConfig{Shards: 2, BatchSize: 8, Seed: 1, Detect: true}
	rocket := []func() chatfuzz.DUT{chatfuzz.NewRocket}
	const budget = 192
	learning, err := chatfuzz.NewOrchestrator(ccfg, rocket,
		chatfuzz.LearningLLMArm(p), chatfuzz.TheHuzzArm(body))
	if err != nil {
		log.Fatal(err)
	}
	if err := learning.RunTests(budget); err != nil {
		log.Fatal(err)
	}
	frozen, err := chatfuzz.NewOrchestrator(ccfg, rocket,
		chatfuzz.LLMArm(p), chatfuzz.TheHuzzArm(body))
	if err != nil {
		log.Fatal(err)
	}
	if err := frozen.RunTests(budget); err != nil {
		log.Fatal(err)
	}
	frozen.Close()
	h := min(learning.Hours(), frozen.Hours())
	fmt.Printf("coverage at %.1f virtual minutes: learning %.2f%%, frozen %.2f%%\n",
		h*60, learning.CoverageAt(h), frozen.CoverageAt(h))

	var ckpt bytes.Buffer
	if err := learning.Checkpoint(&ckpt); err != nil {
		log.Fatal(err)
	}
	w1 := learning.LearnedWeights("chatfuzz-learn")
	learning.Close()

	resumed, err := chatfuzz.ResumeCampaign(&ckpt, ccfg.Exec, rocket,
		chatfuzz.LearningLLMArm(p), chatfuzz.TheHuzzArm(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	fmt.Printf("resumed at round %d with bit-identical weights: %v\n",
		resumed.Rounds(), slices.Equal(w1, resumed.LearnedWeights("chatfuzz-learn")))
	if err := resumed.RunTests(budget + 96); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after resume: %.2f%% coverage, %d tests\n", resumed.Coverage(), resumed.Tests())
	// Output:
	// coverage at 2.0 virtual minutes: learning 67.96%, frozen 61.22%
	// resumed at round 12 with bit-identical weights: true
	// after resume: 71.20% coverage, 288 tests
}

// The three training steps of the LLM-based input generator and the
// metrics the paper monitors, first and last value of each:
// pre-training loss, the Eq. 1 reward and KL divergence of the PPO
// language cleanup, and the coverage reward. `fuzz-bench -exp
// training` prints the whole curves.
func ExamplePipeline() {
	p := chatfuzz.NewPipeline(chatfuzz.TestPipelineConfig())
	fmt.Printf("corpus: %d functions (%d instructions), vocab %d, model %d params\n",
		len(p.Corpus.Functions), p.Corpus.Instructions(), p.Tok.Vocab(), p.Model.NumParams())

	loss := p.Pretrain()
	fmt.Printf("step 1 loss %.3f -> %.3f, invalid-instruction rate %.1f%%\n",
		loss[0], loss[len(loss)-1], 100*p.InvalidRate(20))

	cl := p.Cleanup()
	fmt.Printf("step 2 reward %.2f -> %.2f, KL %.4f -> %.4f, invalid-instruction rate %.1f%%\n",
		cl[0].MeanReward, cl[len(cl)-1].MeanReward, cl[0].MeanKL, cl[len(cl)-1].MeanKL, 100*p.InvalidRate(20))

	cv := p.CoverageTune(chatfuzz.NewRocket())
	fmt.Printf("step 3 reward %.2f -> %.2f\n", cv[0].MeanReward, cv[len(cv)-1].MeanReward)
	// Output:
	// corpus: 150 functions (2898 instructions), vocab 512, model 47105 params
	// step 1 loss 6.258 -> 2.671, invalid-instruction rate 46.1%
	// step 2 reward -3.07 -> -2.81, KL 0.0000 -> 0.4566, invalid-instruction rate 44.6%
	// step 3 reward 6.98 -> 0.29
}
