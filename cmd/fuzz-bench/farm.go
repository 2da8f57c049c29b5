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

// listFlag is a comma-list flag; blanks around and between names are
// dropped.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }

func (l *listFlag) Set(s string) error {
	*l = nil
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			*l = append(*l, f)
		}
	}
	return nil
}

// fleetFlags registers the flags that name a fleet, which the campaign
// and submit subcommands share. Once fs is parsed, fleet returns the
// farm.JobSpec they name with the farm's defaults filled in, or the
// error JobSpec.Validate gives, so both subcommands accept and refuse
// exactly the same fleets.
func fleetFlags(fs *flag.FlagSet) (fleet func() (farm.JobSpec, error)) {
	s := &farm.JobSpec{DUTs: []string{"rocket"}, Arms: []string{"thehuzz", "randinst", "randfuzz"}}
	fs.IntVar(&s.Tests, "tests", 2000, "total fleet test budget")
	fs.IntVar(&s.Shards, "shards", 4, "concurrent campaigns")
	fs.IntVar(&s.BatchSize, "batch", 16, "tests per round per shard")
	fs.IntVar(&s.RoundBatches, "round-batches", 1, "batches per shard between aggregation barriers (amortises the barrier at coarser bandit feedback)")
	fs.IntVar(&s.Body, "body", 24, "instructions per test of the mutation arms (thehuzz, randinst, randfuzz); the LLM arms take the pipeline's body length, shown as body= in their signature")
	fs.Int64Var(&s.Seed, "seed", 1, "campaign seed")
	fs.Var((*listFlag)(&s.DUTs), "dut", "designs under test: comma list of "+strings.Join(campaign.DesignNames, "/")+"; shards alternate designs")
	fs.Var((*listFlag)(&s.Arms), "arms", "generator arms: comma list of "+strings.Join(campaign.ArmNames, "/")+"; the chatfuzz arms sample a trained pipeline")
	fs.BoolVar(&s.Detect, "detect", false, "enable differential testing in every shard")
	fs.Float64Var(&s.MismatchWeight, "mismatch-weight", 0, "bandit reward weight of the mismatch-rate term, 0..1 (requires -detect)")
	fs.IntVar(&s.UpdateBudget, "update-budget", 0, "skip learning-arm PPO updates after this many consecutive zero-new-coverage rounds, until coverage moves again (0 = never skip)")
	return func() (farm.JobSpec, error) {
		spec := s.WithDefaults()
		return spec, spec.Validate()
	}
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

// submitOpts are the submit subcommand's flags beyond the fleet.
type submitOpts struct {
	addr, name string
	ckptEvery  int
	watch      bool
}

// submitFlags builds the submit subcommand's flag set: the fleet flags
// campaign shares, then the subcommand's own.
func submitFlags() (*flag.FlagSet, func() (farm.JobSpec, error), *submitOpts) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	fleet := fleetFlags(fs)
	o := &submitOpts{}
	fs.StringVar(&o.addr, "addr", defaultFarmAddr, "campd daemon address")
	fs.StringVar(&o.name, "name", "", "optional job label")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 1, "durable checkpoint floor in rounds: campd commits only on a multiple of it, at most once per 100 ms (a crash re-simulates at most max(this many rounds, 100 ms plus a round))")
	fs.BoolVar(&o.watch, "watch", false, "stream round reports until the job finishes")
	return fs, fleet, o
}

// submitMain sends a campaign job to a campd daemon.
func submitMain(args []string) {
	fs, fleet, o := submitFlags()
	fs.Parse(args)
	spec, err := fleet()
	if err != nil {
		log.Fatal(err)
	}
	spec.Name, spec.CheckpointEvery = o.name, o.ckptEvery

	c := farm.NewClient(o.addr)
	st, err := c.Submit(spec)
	if err != nil {
		log.Fatalf("submit: %v", err)
	}
	fmt.Printf("queued %s on %s\n", st.ID, o.addr)
	if o.watch {
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
