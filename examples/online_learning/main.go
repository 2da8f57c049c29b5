// Online fleet learning walkthrough: train a small pipeline, run a
// sharded fleet whose LLM arm keeps learning from hardware feedback
// (per-shard PPO replicas, deterministic weight averaging at every
// round barrier), compare it against an identical fleet with the LLM
// arm frozen, and demonstrate that a checkpointed learning campaign
// resumes bit-identically — merged weights included.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"chatfuzz"
)

func main() {
	// A deliberately small configuration so the example finishes in a
	// couple of minutes; drop the overrides for a realistic run.
	cfg := chatfuzz.DefaultPipelineConfig()
	cfg.PretrainSteps = 80
	cfg.CleanupSteps = 10
	cfg.CoverageSteps = 0

	fmt.Println("training the LLM-based input generator (steps 1-2)...")
	p := chatfuzz.NewPipeline(cfg)
	p.Pretrain()
	p.Cleanup()

	ccfg := chatfuzz.CampaignConfig{Shards: 2, BatchSize: 8, Seed: 1, Detect: true}
	const budget = 192

	// Fleet A: the LLM arm learns online. Each shard owns a model
	// replica; scored rollouts step it during the round and the round
	// barrier averages the replicas and redistributes the merge.
	fmt.Printf("fuzzing %d tests with the learning LLM arm...\n", budget)
	learning, err := chatfuzz.NewOrchestrator(ccfg, chatfuzz.NewRocket,
		chatfuzz.LearningLLMArm(p), chatfuzz.TheHuzzArm(cfg.BodyInstrs))
	if err != nil {
		log.Fatal(err)
	}
	if err := learning.RunTests(budget); err != nil {
		log.Fatal(err)
	}

	// Fleet B: the same fleet with the LLM arm frozen (the pre-PR
	// behaviour), as the comparison baseline.
	fmt.Printf("fuzzing %d tests with the frozen LLM arm...\n", budget)
	frozen, err := chatfuzz.NewOrchestrator(ccfg, chatfuzz.NewRocket,
		chatfuzz.LLMArm(p), chatfuzz.TheHuzzArm(cfg.BodyInstrs))
	if err != nil {
		log.Fatal(err)
	}
	if err := frozen.RunTests(budget); err != nil {
		log.Fatal(err)
	}
	defer frozen.Close()

	h := learning.Hours()
	if fh := frozen.Hours(); fh < h {
		h = fh
	}
	fmt.Printf("\nmerged coverage at %.2f virtual h: learning %.2f%% vs frozen %.2f%% (delta %+.2f)\n",
		h, learning.CoverageAt(h), frozen.CoverageAt(h), learning.CoverageAt(h)-frozen.CoverageAt(h))

	// Checkpoint the learning fleet and resume it: trajectory, detector
	// reports and merged model weights continue bit-identically (the
	// resume needs the same trained pipeline — weights are checkpointed,
	// the KL reference model is reproduced by the pipeline itself).
	path := filepath.Join(os.TempDir(), "online_learning_fleet.json")
	if err := learning.CheckpointFile(path); err != nil {
		log.Fatal(err)
	}
	w1 := learning.LearnedWeights("chatfuzz-learn")
	learning.Close()

	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := chatfuzz.ResumeCampaign(f, chatfuzz.NewRocket,
		chatfuzz.LearningLLMArm(p), chatfuzz.TheHuzzArm(cfg.BodyInstrs))
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	w2 := resumed.LearnedWeights("chatfuzz-learn")
	same := len(w1) == len(w2)
	for i := 0; same && i < len(w1); i++ {
		same = w1[i] == w2[i]
	}
	fmt.Printf("resumed learning fleet at round %d with bit-identical weights: %v\n",
		resumed.Rounds(), same)

	if err := resumed.RunTests(budget + 96); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter resume: %.2f%% merged coverage, %d tests\n", resumed.Coverage(), resumed.Tests())
	fmt.Println()
	fmt.Print(resumed.Shard(0).Det.Report())
}
