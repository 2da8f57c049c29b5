// Command chatfuzz runs the ChatFuzz fuzzing loop against a simulated
// DUT as a one-shard campaign fleet: the LLM-based input generator
// produces test vectors, the DUT and the golden-model ISS execute them,
// the Coverage Calculator scores them (optionally feeding PPO updates
// into the shard's model replica), and the Mismatch Detector reports
// findings.
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
		ckpt    = flag.String("model", "", "model checkpoint from train-lm (empty: train now)")
		dutName = flag.String("dut", "rocket", "DUT: "+strings.Join(campaign.DesignNames, " or "))
		tests   = flag.Int("tests", 2000, "number of test inputs to run")
		batch   = flag.Int("batch", 16, "batch size per fuzzing round")
		online  = flag.Bool("online", true, "continue PPO updates from coverage feedback")
		detect  = flag.Bool("detect", true, "differential mismatch detection")
		seed    = flag.Int64("seed", 1, "random seed")
		holes   = flag.Bool("holes", false, "print uncovered condition points at the end")
	)
	flag.Parse()

	newDUT, err := campaign.Design(*dutName)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultPipelineConfig()
	cfg.Seed = *seed
	cfg.Log = os.Stdout
	p := core.NewPipeline(cfg)
	if *ckpt != "" {
		if err := p.Model.LoadFile(*ckpt); err != nil {
			log.Fatalf("loading checkpoint: %v", err)
		}
		fmt.Printf("loaded checkpoint %s\n", *ckpt)
	} else {
		fmt.Println("no checkpoint given: running the training pipeline first")
		p.Pretrain()
		p.Cleanup()
		p.CoverageTune(newDUT())
	}

	arm := campaign.LLMArm(p)
	if *online {
		arm = campaign.LearningLLMArm(p)
	}
	o, err := campaign.New(campaign.Config{Shards: 1, BatchSize: *batch, Seed: *seed, Detect: *detect}, newDUT, arm)
	if err != nil {
		log.Fatal(err)
	}
	defer o.Close()

	fmt.Printf("fuzzing %s for %d tests (batch %d, online=%v)\n", *dutName, *tests, *batch, *online)
	lastReport := 0
	for o.Tests() < *tests {
		if err := o.RunRound(); err != nil {
			log.Fatal(err)
		}
		if o.Tests()-lastReport >= 500 {
			fmt.Printf("  %6d tests  %6.2f%% coverage  %6.2f virtual hours\n",
				o.Tests(), o.Coverage(), o.Hours())
			lastReport = o.Tests()
		}
	}

	fmt.Printf("\nfinal: %.2f%% condition coverage after %d tests (%.2f virtual hours)\n",
		o.Coverage(), o.Tests(), o.Hours())
	f := o.Shard(0)
	if *detect {
		fmt.Println()
		fmt.Print(f.Det.Report())
	}
	if *holes {
		fmt.Println("\nuncovered condition points:")
		for _, h := range f.Calc.Total().UncoveredPoints() {
			fmt.Println("  " + h)
		}
	}
}
