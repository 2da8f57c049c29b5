// Command train-lm runs ChatFuzz's three-step training pipeline
// (unsupervised pre-training, PPO language cleanup, PPO coverage
// optimisation) and saves a model checkpoint for cmd/chatfuzz.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
)

func main() {
	var (
		out       = flag.String("o", "chatfuzz-model.gob", "checkpoint output path")
		dutName   = flag.String("dut", "rocket", "DUT for step 3: "+strings.Join(campaign.DesignNames, " or "))
		seed      = flag.Int64("seed", 1, "global random seed")
		pretrain  = flag.Int("pretrain-steps", 0, "override step-1 steps")
		cleanup   = flag.Int("cleanup-steps", 0, "override step-2 steps")
		coverage  = flag.Int("coverage-steps", 0, "override step-3 steps")
		functions = flag.Int("corpus-functions", 0, "override corpus size")
	)
	flag.Parse()

	cfg := core.DefaultPipelineConfig()
	cfg.Seed = *seed
	cfg.Log = os.Stdout
	if *pretrain > 0 {
		cfg.PretrainSteps = *pretrain
	}
	if *cleanup > 0 {
		cfg.CleanupSteps = *cleanup
	}
	if *coverage > 0 {
		cfg.CoverageSteps = *coverage
	}
	if *functions > 0 {
		cfg.Corpus.Functions = *functions
	}

	newDUT, err := campaign.Design(*dutName)
	if err != nil {
		log.Fatal(err)
	}

	p := core.NewPipeline(cfg)
	fmt.Printf("corpus: %d functions, %d instructions; vocab %d; model %d parameters\n",
		len(p.Corpus.Functions), p.Corpus.Instructions(), p.Tok.Vocab(), p.Model.NumParams())

	p.Pretrain()
	fmt.Printf("invalid-instruction rate after step 1: %.1f%%\n", 100*p.InvalidRate(30))
	p.Cleanup()
	fmt.Printf("invalid-instruction rate after step 2: %.1f%%\n", 100*p.InvalidRate(30))
	p.CoverageTune(newDUT())

	if err := p.Model.SaveFile(*out); err != nil {
		log.Fatalf("saving checkpoint: %v", err)
	}
	fmt.Printf("checkpoint written to %s\n", *out)
}
