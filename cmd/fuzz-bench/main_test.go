package main

import (
	"bytes"
	"flag"
	"maps"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/farm"
)

// TestParseExps: -exp is outside input — every name must be a known
// experiment (a misspelt one used to select nothing and exit 0).
func TestParseExps(t *testing.T) {
	for _, tc := range []struct {
		name, list string
		want       []string // sorted; nil = rejected
	}{
		{"all", "all", []string{"all"}},
		{"valid list with spaces", " fig2, boom ,a1", []string{"a1", "boom", "fig2"}},
		{"empty element", "fig2,,boom", nil},
		{"empty list", "", nil},
		{"one unknown among valid", "fig2,fig3,boom", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseExps(tc.list)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parseExps(%q) = %v, want an error", tc.list, got)
				}
				if msg := err.Error(); !strings.Contains(msg, strings.Join(experiments, ",")) {
					t.Errorf("error %q does not list the valid experiments", msg)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseExps(%q): %v", tc.list, err)
			}
			if names := slices.Sorted(maps.Keys(got)); !slices.Equal(names, tc.want) {
				t.Errorf("parseExps(%q) selects %v, want %v", tc.list, names, tc.want)
			}
		})
	}
}

// parseBoth parses args with the campaign and the submit flag sets.
func parseBoth(t *testing.T, args []string) (campaign, submit farm.JobSpec, campaignErr, submitErr error) {
	t.Helper()
	cfs, cfleet, _ := campaignFlags()
	sfs, sfleet, _ := submitFlags()
	for _, fs := range []*flag.FlagSet{cfs, sfs} {
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%s: parse %q: %v", fs.Name(), args, err)
		}
	}
	campaign, campaignErr = cfleet()
	submit, submitErr = sfleet()
	return campaign, submit, campaignErr, submitErr
}

// TestCampaignAndSubmitNameOneFleet: the same fleet flags give the same
// JobSpec whether the fleet runs in the CLI or on a daemon.
func TestCampaignAndSubmitNameOneFleet(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-tests", "96", "-shards", "2", "-batch", "8", "-body", "8"},
		{"-tests", "64", "-shards", "3", "-batch", "4", "-round-batches", "2", "-body", "12",
			"-seed", "9", "-dut", "rocket, boom", "-arms", "chatfuzz-learn,thehuzz",
			"-detect", "-mismatch-weight", "0.3", "-update-budget", "2"},
	} {
		c, s, cerr, serr := parseBoth(t, args)
		if cerr != nil || serr != nil {
			t.Fatalf("%q refused: campaign %v, submit %v", args, cerr, serr)
		}
		if !reflect.DeepEqual(c, s) {
			t.Errorf("%q names two fleets:\ncampaign %+v\nsubmit   %+v", args, c, s)
		}
	}
	c, _, _, _ := parseBoth(t, []string{"-dut", "rocket, boom", "-arms", "chatfuzz-learn,thehuzz", "-update-budget", "2"})
	if want := []string{"rocket", "boom"}; !slices.Equal(c.DUTs, want) {
		t.Errorf("-dut parsed as %q, want %q", c.DUTs, want)
	}
	if want := []string{"chatfuzz-learn", "thehuzz"}; !slices.Equal(c.Arms, want) {
		t.Errorf("-arms parsed as %q, want %q", c.Arms, want)
	}
	if c.UpdateBudget != 2 {
		t.Errorf("-update-budget parsed as %d", c.UpdateBudget)
	}
}

// TestCampaignAndSubmitRefuseOneWay: a fleet the farm refuses is
// refused by both subcommands, with the same error.
func TestCampaignAndSubmitRefuseOneWay(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-arms", "thehuzz,nonsense"}, `unknown arm "nonsense"`},
		{[]string{"-dut", "rocket,cray-1"}, `unknown design "cray-1"`},
		{[]string{"-arms", "thehuzz,thehuzz"}, `duplicate arm "thehuzz"`},
		{[]string{"-tests", "16", "-mismatch-weight", "0.5"}, "requires detection"},
	} {
		_, _, cerr, serr := parseBoth(t, tc.args)
		if cerr == nil || serr == nil {
			t.Errorf("%q accepted: campaign %v, submit %v", tc.args, cerr, serr)
			continue
		}
		if cerr.Error() != serr.Error() {
			t.Errorf("%q refused two ways:\ncampaign %v\nsubmit   %v", tc.args, cerr, serr)
		}
		if !strings.Contains(cerr.Error(), tc.want) {
			t.Errorf("%q refused with %q, want %q", tc.args, cerr, tc.want)
		}
	}
}

// TestFrozenTwin: the twin swaps the learning arm for the frozen one in
// place, or drops it when the frozen arm is already scheduled.
func TestFrozenTwin(t *testing.T) {
	for _, tc := range []struct {
		arms, want []string // want nil: no twin
	}{
		{[]string{"thehuzz", "randinst", "randfuzz"}, nil},
		{[]string{"chatfuzz", "thehuzz"}, nil},
		{[]string{"chatfuzz-learn", "thehuzz", "randinst", "randfuzz"}, []string{"chatfuzz", "thehuzz", "randinst", "randfuzz"}},
		{[]string{"thehuzz", "chatfuzz-learn"}, []string{"thehuzz", "chatfuzz"}},
		{[]string{"chatfuzz-learn", "chatfuzz", "thehuzz"}, []string{"chatfuzz", "thehuzz"}},
	} {
		spec := farm.JobSpec{Arms: tc.arms, Tests: 64}
		twin, ok := frozenTwin(spec)
		if ok != (tc.want != nil) || (ok && !slices.Equal(twin.Arms, tc.want)) {
			t.Errorf("frozenTwin(%q) = %q, %v; want %q", tc.arms, twin.Arms, ok, tc.want)
		}
		if twin.Tests != spec.Tests {
			t.Errorf("frozenTwin(%q) changed the budget", tc.arms)
		}
		if !slices.Equal(spec.Arms, tc.arms) {
			t.Errorf("frozenTwin(%q) changed the spec's arms to %q", tc.arms, spec.Arms)
		}
	}
}

// TestResumeRefusesPipelineShapeBeforeTraining: a checkpoint of a
// test-scale pipeline's fleet, resumed with the default pipeline's
// flags (no -quickpipe), is refused on its arm signatures before any
// pipeline step runs — the untrained pipeline the check builds logs
// nothing — and the same fleet's flags pass.
func TestResumeRefusesPipelineShapeBeforeTraining(t *testing.T) {
	spec := campaignSpec(t, "-arms", "chatfuzz,thehuzz", "-shards", "1", "-batch", "4", "-body", "8", "-tests", "8")
	cfg, duts, arms, err := spec.Fleet(core.NewPipeline(core.TestPipelineConfig()))
	if err != nil {
		t.Fatal(err)
	}
	o, err := campaign.NewMixed(cfg, duts, arms...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	err = o.CheckpointFile(path)
	o.Close()
	if err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	same := core.TestPipelineConfig()
	same.Log = &log
	if err := checkResume(path, spec, same); err != nil {
		t.Errorf("the checkpoint's own fleet refused: %v", err)
	}
	other := core.DefaultPipelineConfig()
	other.Log = &log
	err = checkResume(path, spec, other)
	if err == nil || !strings.Contains(err.Error(), `arm 0 is "chatfuzz/ctx=48,`) {
		t.Errorf("default pipeline against a test-scale checkpoint: error %v, want arm 0's signatures", err)
	}
	if log.Len() > 0 {
		t.Errorf("the check ran a pipeline step:\n%s", log.String())
	}
}

// campaignSpec parses args with the campaign flag set and returns the
// fleet they name.
func campaignSpec(t *testing.T, args ...string) farm.JobSpec {
	t.Helper()
	fs, fleet, _ := campaignFlags()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	spec, err := fleet()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestResumeRefusesDesignBeforeTraining: a rocket checkpoint of a fleet
// with an LLM arm, resumed with -dut boom, is refused on its shard
// designs before any pipeline step runs, and -dut rocket passes.
func TestResumeRefusesDesignBeforeTraining(t *testing.T) {
	spec := func(dut string) farm.JobSpec {
		return campaignSpec(t, "-arms", "chatfuzz,thehuzz", "-shards", "2", "-batch", "4", "-body", "8",
			"-tests", "8", "-quickpipe", "-dut", dut)
	}
	cfg, duts, arms, err := spec("rocket").Fleet(core.NewPipeline(core.TestPipelineConfig()))
	if err != nil {
		t.Fatal(err)
	}
	o, err := campaign.NewMixed(cfg, duts, arms...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	err = o.CheckpointFile(path)
	o.Close()
	if err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	pcfg := core.TestPipelineConfig()
	pcfg.Log = &log
	if err := checkResume(path, spec("rocket"), pcfg); err != nil {
		t.Errorf("the checkpoint's own fleet refused: %v", err)
	}
	err = checkResume(path, spec("boom"), pcfg)
	if err == nil || !strings.Contains(err.Error(), `shard 0 is design "rocket" in checkpoint but "boom" here`) {
		t.Errorf("-dut boom against a rocket checkpoint: error %v, want shard 0's design", err)
	}
	if log.Len() > 0 {
		t.Errorf("the check ran a pipeline step:\n%s", log.String())
	}
}

// TestModelLoadsWithoutTraining: -model fills an untrained pipeline of
// the campaign's config from a train-lm file, bit for bit and without
// running a pipeline step. A -quickpipe pipeline refuses a default
// model, and a fleet with no chatfuzz arm refuses -model.
func TestModelLoadsWithoutTraining(t *testing.T) {
	cfg := core.DefaultPipelineConfig()
	cfg.PretrainSteps = 1
	trained := core.NewPipeline(cfg)
	trained.Pretrain()
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := trained.Model.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	pcfg := core.DefaultPipelineConfig()
	pcfg.Log = &log
	p, err := loadModel(path, campaignSpec(t, "-arms", "chatfuzz,thehuzz"), pcfg)
	if err != nil {
		t.Fatalf("the default pipeline refused a default model: %v", err)
	}
	want, got := trained.Model.Params(), p.Model.Params()
	for i := range want {
		for j, w := range want[i].Data {
			if math.Float64bits(got[i].Data[j]) != math.Float64bits(w) {
				t.Fatalf("tensor %d element %d loaded as %v, saved as %v", i, j, got[i].Data[j], w)
			}
		}
	}
	if log.Len() > 0 {
		t.Errorf("loading ran a pipeline step:\n%s", log.String())
	}

	quick := core.TestPipelineConfig()
	quick.Log = &log
	if _, err := loadModel(path, campaignSpec(t, "-arms", "chatfuzz-learn", "-quickpipe"), quick); err == nil ||
		!strings.Contains(err.Error(), "does not match model") {
		t.Errorf("-quickpipe with a default model: error %v, want a shape mismatch", err)
	}
	if _, err := loadModel(path, campaignSpec(t), pcfg); err == nil ||
		!strings.Contains(err.Error(), "-arms thehuzz,randinst,randfuzz has no chatfuzz arm") {
		t.Errorf("-model with the mutation arms only: error %v, want a refusal", err)
	}
	if log.Len() > 0 {
		t.Errorf("a refused load ran a pipeline step:\n%s", log.String())
	}
}
