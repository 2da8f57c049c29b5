// Quickstart: train a small ChatFuzz pipeline, fuzz the Rocket model
// for a few hundred tests as a one-shard campaign fleet whose model
// keeps learning from coverage, and print coverage plus detected
// findings.
package main

import (
	"fmt"
	"log"

	"chatfuzz"
)

func main() {
	// A deliberately tiny configuration so the example finishes in
	// about a minute; see cmd/train-lm for full-scale training.
	cfg := chatfuzz.DefaultPipelineConfig()
	cfg.PretrainSteps = 80
	cfg.CleanupSteps = 10
	cfg.CoverageSteps = 0 // skip step 3 in the quickstart

	fmt.Println("training the LLM-based input generator (steps 1-2)...")
	p := chatfuzz.NewPipeline(cfg)
	p.Pretrain()
	p.Cleanup()
	fmt.Printf("invalid-instruction rate: %.1f%%\n", 100*p.InvalidRate(20))

	// Swap in chatfuzz.NewBoom to fuzz the out-of-order core instead.
	o, err := chatfuzz.NewOrchestrator(
		chatfuzz.CampaignConfig{Shards: 1, BatchSize: 16, Seed: 1, Detect: true},
		chatfuzz.NewRocket, chatfuzz.LearningLLMArm(p))
	if err != nil {
		log.Fatal(err)
	}
	defer o.Close()

	fmt.Println("fuzzing RocketCore for 320 tests...")
	if err := o.RunTests(320); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncondition coverage: %.2f%% after %d tests (%.1f virtual minutes)\n",
		o.Coverage(), o.Tests(), o.Hours()*60)
	fmt.Println()
	fmt.Print(o.Shard(0).Det.Report())
}
