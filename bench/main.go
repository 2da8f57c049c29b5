//go:build linux

// Command bench is the repository's performance ledger: four
// workloads on the real Rocket and BOOM models, absolute end-to-end
// metrics, and a per-layer table measured from outside the layers.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is
//	    the result as one JSON object (the contract of BENCHMARK.json)
//	go run ./bench [-seed N] [-seconds S] [-out DIR]
//	    the whole ledger, to DIR/ledger.json: ten end-to-end runs
//	    (seeds N..N+9) and one traced run of every workload, each in
//	    its own child process
//	go run ./bench compare A.json B.json
//	    per (metric, workload) verdict between two ledgers
//
// See README.md in this directory for the metric glossary. Every file
// of the package is built on Linux only: memory and CPU time are read
// with getrusage, whose ru_maxrss is in KiB there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name   = flag.String("workload", "", "run this one workload and print its result as JSON (default: the whole ledger)")
		seed   = flag.Int64("seed", 1, "seed of every generated input; a claim must also hold on a seed not used while the change was written")
		secs   = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		traced = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, from leaf replays and a traced run")
		quick  = flag.Bool("quick", false, "smoke-test budgets: the numbers mean nothing")
		outDir = flag.String("out", "bench/out", "directory for traces, the ledger and the farm's scratch data")
	)
	flag.Parse()

	if *name == "" {
		os.Exit(ledgerMain(*outDir, *seed, *secs, *quick))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *secs <= 0 {
		spec, err := readSpec(specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		*secs = float64(spec.RunSeconds)
	}
	r := &run{w: w, seed: *seed, seconds: *secs, quick: *quick, outDir: *outDir, log: os.Stdout}
	res, err := r.measure(*traced != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs the workload once and returns its result: the
// end-to-end metrics of untraced repeats, or the per-layer table.
func (r *run) measure(traced bool) (result, error) {
	units := endToEnd
	if traced {
		units = perLayer
	}
	m := newMetricSet(units)
	var err error
	switch {
	case r.w.jobs > 0 && traced:
		err = r.farmTraced(m)
	case r.w.jobs > 0:
		err = r.farmEndToEnd(m)
	case traced:
		err = r.fleetTraced(m)
	default:
		err = r.fleetEndToEnd(m)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", r.w.name, err)
	}
	return m.result(r.log, r.attempted, len(r.failures)), nil
}
