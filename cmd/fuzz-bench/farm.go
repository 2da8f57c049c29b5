package main

// The farm client subcommands: submit, status and watch talk to a
// campd daemon's HTTP API (cmd/campd). Submission is durable the
// moment the command returns — the daemon fsyncs the job into its
// queue log before acknowledging — and a watch survives daemon
// crashes: reconnect and the stream replays from the checkpoint's
// trajectory, bit-identical to the history an uninterrupted daemon
// would have served.

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/farm"
)

const defaultFarmAddr = "127.0.0.1:8700"

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func printJob(st farm.JobStatus) {
	line := fmt.Sprintf("%-8s %-8s round %-4d %6d tests  %6.2f%% cov",
		st.ID, st.State, st.Round, st.Tests, st.Coverage)
	if st.Resumes > 0 {
		line += fmt.Sprintf("  (%d resumes)", st.Resumes)
	}
	if st.Error != "" {
		line += "  error: " + st.Error
	}
	fmt.Println(line)
}

func watchReports(c *farm.Client, id string, from int) {
	st, err := c.Watch(id, from, func(rep farm.RoundReport) error {
		fmt.Printf("%s round %-4d %6d tests  %.2f virtual h  %6.2f%% cov\n",
			id, rep.Round, rep.Tests, rep.Hours, rep.Coverage)
		return nil
	})
	if err != nil {
		log.Fatalf("watch: %v", err)
	}
	printJob(st)
	if st.State == farm.JobFailed {
		log.Fatalf("watch: %s failed", id)
	}
}

// submitMain sends a campaign job to a campd daemon.
func submitMain(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		addr       = fs.String("addr", defaultFarmAddr, "campd daemon address")
		name       = fs.String("name", "", "optional job label")
		tests      = fs.Int("tests", 2000, "total fleet test budget")
		shards     = fs.Int("shards", 4, "concurrent campaigns")
		batch      = fs.Int("batch", 16, "tests per round per shard")
		roundBatch = fs.Int("round-batches", 1, "batches per shard between aggregation barriers")
		body       = fs.Int("body", 24, "instructions per test")
		seed       = fs.Int64("seed", 1, "campaign seed")
		dutNames   = fs.String("dut", "rocket", "designs under test: comma list of rocket/boom")
		armNames   = fs.String("arms", "thehuzz,randinst,randfuzz", "generator arms: comma list of thehuzz/randinst/randfuzz/chatfuzz/chatfuzz-learn")
		detect     = fs.Bool("detect", false, "enable differential testing in every shard")
		mweight    = fs.Float64("mismatch-weight", 0, "bandit reward weight of the mismatch-rate term, 0..1 (requires -detect)")
		budget     = fs.Int("update-budget", 0, "learning-arm PPO skip budget (0 = never skip)")
		ckptEvery  = fs.Int("checkpoint-every", 1, "durable checkpoint cadence in rounds (a crash re-simulates at most this many rounds)")
		watch      = fs.Bool("watch", false, "stream round reports until the job finishes")
	)
	fs.Parse(args)
	if err := campaign.CheckMismatchWeight(*mweight, *detect); err != nil {
		log.Fatalf("submit: -mismatch-weight: %v", err)
	}

	c := farm.NewClient(*addr)
	st, err := c.Submit(farm.JobSpec{
		Name:            *name,
		DUTs:            splitList(*dutNames),
		Arms:            splitList(*armNames),
		Tests:           *tests,
		Shards:          *shards,
		BatchSize:       *batch,
		RoundBatches:    *roundBatch,
		Seed:            *seed,
		Body:            *body,
		Detect:          *detect,
		MismatchWeight:  *mweight,
		UpdateBudget:    *budget,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		log.Fatalf("submit: %v", err)
	}
	fmt.Printf("queued %s on %s\n", st.ID, *addr)
	if *watch {
		watchReports(c, st.ID, 0)
	}
}

// statusMain prints one job's status, or every job's without an
// argument.
func statusMain(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", defaultFarmAddr, "campd daemon address")
	fs.Parse(args)

	c := farm.NewClient(*addr)
	if fs.NArg() > 0 {
		st, err := c.Job(fs.Arg(0))
		if err != nil {
			log.Fatalf("status: %v", err)
		}
		printJob(st)
		return
	}
	jobs, err := c.Jobs()
	if err != nil {
		log.Fatalf("status: %v", err)
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return
	}
	for _, st := range jobs {
		printJob(st)
	}
}

// watchMain streams a job's round reports until it finishes.
func watchMain(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addr := fs.String("addr", defaultFarmAddr, "campd daemon address")
	from := fs.Int("from", 0, "first round index to replay (0 streams the full history)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("watch: usage: fuzz-bench watch [-addr host:port] <job-id>")
	}
	watchReports(farm.NewClient(*addr), fs.Arg(0), *from)
}
