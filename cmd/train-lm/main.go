// Command train-lm runs ChatFuzz's three-step training pipeline
// (unsupervised pre-training, PPO language cleanup, PPO coverage
// optimisation) on the default pipeline configuration and saves the
// model for `fuzz-bench campaign -model`.
//
// The file holds the model's shape and weights, not its tokenizer: a
// loader rebuilds that from the default corpus. So the step counts and
// the seed are the only knobs; the corpus is fixed.
//
// Exit status: 0 saved, 1 failure, 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("train-lm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "chatfuzz-model.gob", "model output path")
		dutName  = fs.String("dut", "rocket", "DUT for step 3: "+strings.Join(campaign.DesignNames, " or "))
		seed     = fs.Int64("seed", 1, "global random seed")
		pretrain = fs.Int("pretrain-steps", 0, "override step-1 steps")
		cleanup  = fs.Int("cleanup-steps", 0, "override step-2 steps")
		coverage = fs.Int("coverage-steps", 0, "override step-3 steps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := core.DefaultPipelineConfig()
	cfg.Seed = *seed
	cfg.Log = stdout
	if *pretrain > 0 {
		cfg.PretrainSteps = *pretrain
	}
	if *cleanup > 0 {
		cfg.CleanupSteps = *cleanup
	}
	if *coverage > 0 {
		cfg.CoverageSteps = *coverage
	}

	newDUT, err := campaign.Design(*dutName)
	if err != nil {
		fmt.Fprintln(stderr, "train-lm:", err)
		return 2
	}

	p := core.NewPipeline(cfg)
	fmt.Fprintf(stdout, "corpus: %d functions, %d instructions; vocab %d; model %d parameters\n",
		len(p.Corpus.Functions), p.Corpus.Instructions(), p.Tok.Vocab(), p.Model.NumParams())

	p.Pretrain()
	fmt.Fprintf(stdout, "invalid-instruction rate after step 1: %.1f%%\n", 100*p.InvalidRate(30))
	p.Cleanup()
	fmt.Fprintf(stdout, "invalid-instruction rate after step 2: %.1f%%\n", 100*p.InvalidRate(30))
	p.CoverageTune(newDUT())

	if err := p.Model.SaveFile(*out); err != nil {
		fmt.Fprintln(stderr, "train-lm: saving the model:", err)
		return 1
	}
	fmt.Fprintf(stdout, "model written to %s\n", *out)
	return 0
}
