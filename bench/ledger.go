//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ledger is every number of one `go run ./bench`: per workload, the
// end-to-end metrics of each run (in seed order) and the per-layer
// table of the traced run (first seed).
type ledger struct {
	Go        string                     `json:"go"`
	Nproc     int                        `json:"nproc"`
	Seconds   float64                    `json:"seconds"`
	Seed      int64                      `json:"seed"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// child runs one workload once in a process of its own, so that its
// set-up time and peak memory are its alone.
func child(self string, args ...string) (result, error) {
	var res result
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result on the last line: %w", err)
	}
	// A run that printed a result and still failed reports it itself.
	return res, nil
}

// ledgerRuns is how many end-to-end runs, each with its own seed, a ledger
// holds per workload: the sample the benchmark contract takes its
// quartiles from.
const ledgerRuns = 10

func ledgerMain(outDir string, seed int64, secs float64, quick bool) int {
	outFile := filepath.Join(outDir, "ledger.json")
	spec, err := readSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if secs <= 0 {
		secs = float64(spec.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	led := ledger{Go: runtime.Version(), Nproc: runtime.NumCPU(), Seconds: secs, Seed: seed, Runs: ledgerRuns,
		Workloads: map[string]*ledgerWorkload{}}
	failed := 0
	for _, w := range spec.Workloads {
		lw := &ledgerWorkload{EndToEnd: map[string]series{}}
		led.Workloads[w.Name] = lw
		args := func(s int64, trace int) []string {
			a := []string{"--workload", w.Name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", outDir}
			if quick {
				a = append(a, "--quick")
			}
			return a
		}
		for i := 0; i <= ledgerRuns; i++ {
			// The last child is the traced one, on the first seed.
			s, trace := seed+int64(i), 0
			if i == ledgerRuns {
				s, trace = seed, 1
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d\n", w.Name, s, trace)
			res, err := child(self, args(s, trace)...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %v\n", w.Name, s, trace, err)
				failed++
				continue
			}
			lw.Attempted += res.Attempted
			lw.Failed += res.Failed
			if trace == 1 {
				lw.PerLayer = res.Metrics
				continue
			}
			for name, m := range res.Metrics {
				sr := lw.EndToEnd[name]
				sr.Unit = m.Unit
				sr.Values = append(sr.Values, m.Value)
				lw.EndToEnd[name] = sr
			}
		}
		failed += lw.Failed
		printWorkload(spec, w.Name, w.Why, lw)
	}
	raw, err := json.MarshalIndent(led, "", " ")
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(outFile, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nledger written to %s\n", outFile)
	if failed > 0 {
		fmt.Printf("%d failed operations\n", failed)
		return 1
	}
	return 0
}

func printWorkload(spec benchSpec, name, why string, lw *ledgerWorkload) {
	fmt.Printf("\n== %s — %s\n   operations: %d attempted, %d failed\n", name, why, lw.Attempted, lw.Failed)
	fmt.Printf("   %-34s %14s %14s %14s %8s %6s  (n=%d)\n", "end to end", "median", "q1", "q3", "spread", "bound", len(lw.EndToEnd["setup_s"].Values))
	for _, sm := range spec.EndToEnd {
		v := lw.EndToEnd[sm.Name].Values
		q1, q3 := quartiles(v)
		fmt.Printf("   %-34s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%  %s, %s is better\n",
			sm.Name, median(v), q1, q3, 100*spread(v), 100*sm.Bound, sm.Unit, sm.Better)
	}
	fmt.Printf("   %-34s %14s\n", "per layer (traced run)", "value")
	var shares []string
	for _, sm := range spec.PerLayer {
		fmt.Printf("   %-34s %14.6g  %s\n", sm.Name, lw.PerLayer[sm.Name].Value, sm.Unit)
		if strings.HasPrefix(sm.Name, "share.") && sm.Name != "share.unattributed_pct" {
			shares = append(shares, sm.Name)
		}
	}
	sort.Slice(shares, func(i, j int) bool { return lw.PerLayer[shares[i]].Value > lw.PerLayer[shares[j]].Value })
	if len(shares) >= 3 {
		fmt.Printf("   top layers by cost:")
		for _, s := range shares[:3] {
			fmt.Printf("  %s %.1f%%", strings.TrimSuffix(strings.TrimPrefix(s, "share."), "_pct"), lw.PerLayer[s].Value)
		}
		fmt.Println()
	}
}

// compareMain prints, for every (metric, workload), how ledger B reads
// against ledger A under the bounds of BENCHMARK.json:
//
//	better      B's median is better by more than the spread of A's runs,
//	            and B reads better in nine tenths of the runs paired by seed
//	worse       B's median is worse by more than the bound
//	within      neither
//	unresolved  the run-to-run spread is wider than the bound, and the
//	            two sets of runs overlap
//
//	missing     a ledger has no value: its runs failed
//
// and checks that the simulated statistics agree exactly. It exits 1
// on any worse or missing verdict or simulated difference.
func compareMain(argv []string) int {
	if len(argv) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	spec, err := readSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var a, b ledger
	for i, l := range []*ledger{&a, &b} {
		raw, err := os.ReadFile(argv[i])
		if err == nil {
			err = json.Unmarshal(raw, l)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", argv[i], err)
			return 2
		}
	}
	bad := 0
	sameSeeds := a.Seed == b.Seed
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%s: missing from a ledger\n", w.Name)
			bad++
			continue
		}
		fmt.Printf("\n== %s\n   %-24s %14s %14s %8s %8s %6s  verdict\n", w.Name, "end to end", "A median", "B median", "change", "spread", "bound")
		for _, sm := range spec.EndToEnd {
			va, vb := wa.EndToEnd[sm.Name].Values, wb.EndToEnd[sm.Name].Values
			v := verdict(sm, va, vb)
			if v == "worse" || v == "missing" {
				bad++
			}
			fmt.Printf("   %-24s %14.6g %14.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n", sm.Name, median(va), median(vb),
				100*(median(vb)-median(va))/median(va), 100*max(spread(va), spread(vb)), 100*sm.Bound, v)
		}
		if !sameSeeds {
			fmt.Println("   simulated statistics: not compared, the ledgers used different seeds")
			continue
		}
		diffs := 0
		if !equalValues(wa.EndToEnd["coverage_pct"].Values, wb.EndToEnd["coverage_pct"].Values) {
			fmt.Println("   simulated coverage_pct differs between the ledgers, seed by seed")
			diffs++
		}
		for _, name := range simulated {
			if x, y := wa.PerLayer[name].Value, wb.PerLayer[name].Value; x != y {
				fmt.Printf("   simulated %s differs: %v vs %v\n", name, x, y)
				diffs++
			}
		}
		if diffs == 0 {
			fmt.Printf("   simulated statistics: coverage_pct of every seed and %d traced counts agree exactly\n", len(simulated))
		}
		bad += diffs
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// equalValues compares the runs two ledgers share, seed by seed.
func equalValues(a, b []float64) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return n > 0
}

func verdict(sm specMetric, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 || median(a) == 0 {
		return "missing"
	}
	sa, sb := sorted(a), sorted(b)
	minA, maxA, minB, maxB := sa[0], sa[len(sa)-1], sb[0], sb[len(sb)-1]
	// worse is B's change for the worse, as a share of A's median;
	// apart means every run of one side beats every run of the other;
	// wins counts the runs (paired by seed) in which B read better.
	worse := (median(b) - median(a)) / median(a)
	apart := maxB < minA || minB > maxA
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if (sm.Better == "higher") == (b[i] > a[i]) && b[i] != a[i] {
			wins++
		}
	}
	if sm.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(spread(a), spread(b)) > sm.Bound && !apart:
		return "unresolved"
	case worse > sm.Bound:
		return "worse"
	case -worse > spread(a) && 10*wins >= 9*pairs:
		return "better"
	}
	return "within"
}
