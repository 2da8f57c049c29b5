package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/telemetry"
)

// testSpec is small enough for CI but long enough (15 rounds at the
// default CheckpointEvery=1) that a kill reliably lands mid-campaign.
func testSpec(tests int) JobSpec {
	return JobSpec{
		Name:      "t",
		Tests:     tests,
		Shards:    2,
		BatchSize: 8,
		Seed:      11,
		Body:      8,
	}
}

func waitUntil(t *testing.T, desc string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	waitUntil(t, id+" terminal", func() bool {
		st, ok := s.Job(id)
		return ok && (st.State == JobDone || st.State == JobFailed)
	})
	st, _ := s.Job(id)
	if st.State != JobDone {
		t.Fatalf("%s finished %s: %s", id, st.State, st.Error)
	}
	return st
}

// directRun executes a spec straight on the orchestrator — no farm —
// and returns the trajectory (as round reports) plus the final
// checkpoint bytes. This is the reference every farm path must match
// bit for bit.
func directRun(t *testing.T, spec JobSpec) ([]RoundReport, []byte) {
	t.Helper()
	spec = spec.WithDefaults()
	p, err := spec.Pipeline(core.TestPipelineConfig())
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	cfg, duts, arms, err := spec.Fleet(p)
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	o, err := campaign.NewMixed(cfg, duts, arms...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	defer o.Close()
	for o.Tests() < spec.Tests {
		if err := o.RunRound(); err != nil {
			t.Fatalf("RunRound: %v", err)
		}
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := o.CheckpointFile(path); err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return reports(o.Trajectory()), b
}

// pastGapClock is a cadence clock that moves checkpointGap on every
// read, so every CheckpointEvery round is committed: one commit per
// round at the default cadence, the schedule the crash drills below
// count and corrupt.
func pastGapClock() func() time.Time {
	var reads atomic.Int64
	return func() time.Time {
		return time.Unix(0, 0).Add(time.Duration(reads.Add(1)) * checkpointGap)
	}
}

func readCheckpoint(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(s.checkpointPath(id))
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	return b
}

// TestFarmJobMatchesDirectRun: a job run by the daemon produces the
// same trajectory and checkpoint bytes as the same spec run directly
// on the orchestrator — the farm adds durability, not divergence.
func TestFarmJobMatchesDirectRun(t *testing.T) {
	spec := testSpec(96)
	wantReps, wantCkpt := directRun(t, spec)

	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Stop()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitDone(t, s, st.ID)

	gotReps, _ := s.Rounds(st.ID, 0)
	if !reflect.DeepEqual(gotReps, wantReps) {
		t.Errorf("farm trajectory diverged from direct run:\n got %+v\nwant %+v", gotReps, wantReps)
	}
	if got := readCheckpoint(t, s, st.ID); !bytes.Equal(got, wantCkpt) {
		t.Errorf("farm checkpoint bytes differ from direct run (%d vs %d bytes)", len(got), len(wantCkpt))
	}
	if final.Summary == nil || final.Summary.Tests != wantReps[len(wantReps)-1].Tests {
		t.Errorf("summary %+v does not match trajectory tail %+v", final.Summary, wantReps[len(wantReps)-1])
	}
	if final.Resumes != 0 {
		t.Errorf("uninterrupted job reports %d resumes", final.Resumes)
	}
}

// killAndReopen crashes the farm once the job has passed at least two
// round barriers, verifies the on-disk state a crash leaves (readable
// checkpoint, replayable queue log), reopens the same data dir and
// returns the new server.
func killAndReopen(t *testing.T, s *Server, cfg Config, id string) *Server {
	t.Helper()
	killPastRound2(t, s, id)
	return reopenAfterKill(t, s, cfg, id)
}

// killPastRound2 crashes the farm once the job has passed at least two
// round barriers: on pastGapClock at the default cadence, round 1 at
// least is durable.
func killPastRound2(t *testing.T, s *Server, id string) {
	t.Helper()
	waitUntil(t, id+" past round 2", func() bool {
		reps, _ := s.Rounds(id, 0)
		return len(reps) >= 2
	})
	s.kill()
}

// reopenAfterKill verifies the on-disk state a crash leaves (readable
// checkpoint, replayable queue log), reopens the same data dir and
// returns the new server.
func reopenAfterKill(t *testing.T, s *Server, cfg Config, id string) *Server {
	t.Helper()
	// No crash sequence may leave an unreadable checkpoint: whatever
	// instant the kill hit, the file must hold a complete commit.
	info, err := s.checkpointInfo(id)
	if err != nil {
		t.Fatalf("checkpoint unreadable after kill: %v", err)
	}
	if info.Round < 1 {
		t.Fatalf("checkpoint after kill has round %d", info.Round)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("re-Open after kill: %v", err)
	}
	st, ok := s2.Job(id)
	if !ok {
		t.Fatalf("job %s lost across the crash", id)
	}
	if st.State == JobDone || st.State == JobFailed {
		t.Fatalf("killed job replayed as terminal: %s", st.State)
	}
	if st.Resumes != 1 {
		t.Errorf("recovered job reports %d resumes, want 1", st.Resumes)
	}
	return s2
}

// TestFarmKillRecoverBitIdentical is the headline recovery property:
// kill the daemon mid-campaign, reopen the data dir, and the resumed
// job completes with a trajectory and final checkpoint bit-identical
// to a farm that never died.
func TestFarmKillRecoverBitIdentical(t *testing.T) {
	spec := testSpec(240)
	wantReps, wantCkpt := directRun(t, spec)

	cfg := Config{Dir: t.TempDir(), Metrics: telemetry.NewRegistry(), now: pastGapClock()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s2 := killAndReopen(t, s, cfg, st.ID)
	defer s2.Stop()
	waitDone(t, s2, st.ID)

	gotReps, _ := s2.Rounds(st.ID, 0)
	if !reflect.DeepEqual(gotReps, wantReps) {
		t.Errorf("recovered trajectory diverged:\n got %+v\nwant %+v", gotReps, wantReps)
	}
	if got := readCheckpoint(t, s2, st.ID); !bytes.Equal(got, wantCkpt) {
		t.Errorf("recovered checkpoint bytes differ from uninterrupted run")
	}
	// Both daemons count into cfg.Metrics. A round the kill caught
	// between its barrier and its checkpoint is run twice; every
	// round is still committed once.
	if got := cfg.Metrics.Counter("farm/checkpoints").Value(); got != int64(len(wantReps)) {
		t.Errorf("%d checkpoints across the crash for %d rounds", got, len(wantReps))
	}
}

// TestFarmRecoveredQueuedJobReportsCheckpoint: a job that replay
// re-queues behind another reads its checkpoint's progress and round
// history before any worker resumes it — status and watchers see the
// last durable barrier, not coverage 0 and an empty stream — and it
// then finishes bit-identical to an uninterrupted run.
func TestFarmRecoveredQueuedJobReportsCheckpoint(t *testing.T) {
	// Long enough that neither finishes before the kill, nor the first
	// before the second is read back.
	first, second := testSpec(1600), testSpec(1600)
	second.Seed = 12
	wantReps, wantCkpt := directRun(t, second)

	cfg := Config{Dir: t.TempDir(), Workers: 2}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ids []string
	for _, spec := range []JobSpec{first, second} {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	waitUntil(t, "both jobs past round 2", func() bool {
		a, _ := s.Rounds(ids[0], 0)
		b, _ := s.Rounds(ids[1], 0)
		return len(a) >= 2 && len(b) >= 2
	})
	s.kill()

	// One worker: the first job resumes, the second waits in the queue.
	cfg.Workers = 1
	s2 := reopenAfterKill(t, s, cfg, ids[1])
	defer s2.Stop()
	id := ids[1]
	st, _ := s2.Job(id)
	info, err := s2.checkpointInfo(id)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	last := info.Merged[len(info.Merged)-1]
	if st.State != JobQueued || st.Round != info.Round || st.Tests != last.Tests || st.Coverage != last.Coverage {
		t.Errorf("queued recovered job reads %s round=%d tests=%d coverage=%v, want queued round=%d tests=%d coverage=%v",
			st.State, st.Round, st.Tests, st.Coverage, info.Round, last.Tests, last.Coverage)
	}
	if got, _ := s2.Rounds(id, 0); !reflect.DeepEqual(got, reports(info.Merged)) {
		t.Errorf("queued recovered job's history:\n got %+v\nwant %+v", got, reports(info.Merged))
	}

	waitDone(t, s2, ids[0])
	waitDone(t, s2, id)
	if got, _ := s2.Rounds(id, 0); !reflect.DeepEqual(got, wantReps) {
		t.Errorf("recovered trajectory diverged:\n got %+v\nwant %+v", got, wantReps)
	}
	if got := readCheckpoint(t, s2, id); !bytes.Equal(got, wantCkpt) {
		t.Errorf("recovered checkpoint bytes differ from uninterrupted run")
	}
}

// TestFarmKillRecoverLLMJob runs the same crash drill with a learning
// LLM arm: resume retrains the deterministic test pipeline and carries
// the checkpoint's published+staged learner weights, so even the
// feedback loop replays bit-identically.
func TestFarmKillRecoverLLMJob(t *testing.T) {
	spec := testSpec(160)
	spec.Arms = []string{"thehuzz", "chatfuzz-learn"}
	wantReps, wantCkpt := directRun(t, spec)

	cfg := Config{Dir: t.TempDir()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s2 := killAndReopen(t, s, cfg, st.ID)
	defer s2.Stop()
	waitDone(t, s2, st.ID)

	gotReps, _ := s2.Rounds(st.ID, 0)
	if !reflect.DeepEqual(gotReps, wantReps) {
		t.Errorf("LLM job recovered trajectory diverged:\n got %+v\nwant %+v", gotReps, wantReps)
	}
	if got := readCheckpoint(t, s2, st.ID); !bytes.Equal(got, wantCkpt) {
		t.Errorf("LLM job recovered checkpoint bytes differ from uninterrupted run")
	}
}

// TestFarmUndecodableCheckpointFailsJob: a checkpoint file that exists
// but does not decode — here, its first half, as a writer that did not
// rename into place could leave it — fails the job with an error naming
// the file, and the file is left as found rather than overwritten by a
// restart from round 0.
func TestFarmUndecodableCheckpointFailsJob(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), now: pastGapClock()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := s.Submit(testSpec(240))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	killPastRound2(t, s, st.ID)
	path := s.checkpointPath(st.ID)
	torn := readCheckpoint(t, s, st.ID)
	torn = torn[:len(torn)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("tear the checkpoint: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer s2.Stop()
	var got JobStatus
	waitUntil(t, st.ID+" terminal", func() bool {
		got, _ = s2.Job(st.ID)
		return got.State == JobDone || got.State == JobFailed
	})
	if got.State != JobFailed || !strings.Contains(got.Error, path) {
		t.Errorf("job ended %s (%q), want failed naming %s", got.State, got.Error, path)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, torn) {
		t.Errorf("the checkpoint file was touched (%v)", err)
	}
}

// TestFarmCheckpointReadsDuringCommits: GET /checkpoint polls, under
// no lock, while the runner commits every round. Each read must decode
// (campaign.DecodeCheckpointInfo) — a renamed file is the old commit or
// the new one whole — and it must never miss the file once a commit was
// served, nor go back to an older round than it saw before.
func TestFarmCheckpointReadsDuringCommits(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0", now: pastGapClock()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Stop()
	c := NewClient(s.Addr())
	st, err := s.Submit(testSpec(1600)) // 100 rounds, each one a commit
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	round, served := 0, 0 // served counts the distinct rounds read
	for done := false; !done; {
		cur, _ := s.Job(st.ID)
		done = cur.State == JobDone || cur.State == JobFailed
		b, err := c.Checkpoint(st.ID)
		if err != nil {
			if round > 0 {
				t.Fatalf("checkpoint unreadable after round %d was served: %v", round, err)
			}
			continue
		}
		info, err := campaign.DecodeCheckpointInfo(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("served checkpoint does not decode: %v", err)
		}
		if info.Round < round {
			t.Fatalf("served round %d after round %d", info.Round, round)
		}
		if info.Round > round {
			served++
		}
		round = info.Round
	}
	if final := waitDone(t, s, st.ID); round != final.Summary.Rounds {
		t.Errorf("last served checkpoint is round %d, the job ran %d", round, final.Summary.Rounds)
	}
	// The reads ran beside the commits, not only after the last one.
	if served < 2 {
		t.Errorf("the poll saw %d committed rounds, want reads between commits", served)
	}
}

// TestFarmGracefulStopParksAndResumes: Stop() checkpoints and parks
// running jobs; a reopened farm finishes them bit-identically.
func TestFarmGracefulStopParksAndResumes(t *testing.T) {
	spec := testSpec(240)
	wantReps, wantCkpt := directRun(t, spec)

	cfg := Config{Dir: t.TempDir(), Metrics: telemetry.NewRegistry(), now: pastGapClock()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitUntil(t, "first round", func() bool {
		reps, _ := s.Rounds(st.ID, 0)
		return len(reps) >= 1
	})
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer s2.Stop()
	waitDone(t, s2, st.ID)
	gotReps, _ := s2.Rounds(st.ID, 0)
	if !reflect.DeepEqual(gotReps, wantReps) {
		t.Errorf("parked+resumed trajectory diverged:\n got %+v\nwant %+v", gotReps, wantReps)
	}
	if got := readCheckpoint(t, s2, st.ID); !bytes.Equal(got, wantCkpt) {
		t.Errorf("parked+resumed checkpoint bytes differ from uninterrupted run")
	}
	// The park found its barrier already durable and the resume found it
	// on disk: neither rewrote it.
	if got, rounds := cfg.Metrics.Counter("farm/checkpoints").Value(), cfg.Metrics.Counter("farm/rounds").Value(); got != rounds || rounds != int64(len(wantReps)) {
		t.Errorf("%d checkpoints for %d rounds run, trajectory of %d", got, rounds, len(wantReps))
	}
}

// TestFarmWritesEachGenerationOnce: a job's last round is a cadence
// checkpoint and the final artifact at once, and is one write.
func TestFarmWritesEachGenerationOnce(t *testing.T) {
	for _, tc := range []struct{ every, want int }{
		{1, 6}, // every round; the final write repeats round 6
		{4, 2}, // round 4, then the final write
		{6, 1}, // the cadence lands on the last round
	} {
		spec := testSpec(96) // 6 rounds
		spec.CheckpointEvery = tc.every
		_, wantCkpt := directRun(t, spec)

		reg := telemetry.NewRegistry()
		s, err := Open(Config{Dir: t.TempDir(), Metrics: reg, now: pastGapClock()})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		final := waitDone(t, s, st.ID)
		if final.Summary.Rounds != 6 {
			t.Fatalf("job ran %d rounds, want 6", final.Summary.Rounds)
		}
		if got := reg.Counter("farm/checkpoints").Value(); got != int64(tc.want) {
			t.Errorf("CheckpointEvery %d: %d checkpoints, want %d", tc.every, got, tc.want)
		}
		if got := readCheckpoint(t, s, st.ID); !bytes.Equal(got, wantCkpt) {
			t.Errorf("CheckpointEvery %d: final checkpoint differs from direct run", tc.every)
		}
		if err := s.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
	}
}

// TestFarmCheckpointCadence pins which rounds a job commits when each
// round takes a third of checkpointGap: the first cadence round, then
// each cadence round at least checkpointGap after the previous commit,
// then the last round. Skipped commits change no byte of the result.
func TestFarmCheckpointCadence(t *testing.T) {
	for _, tc := range []struct {
		every int
		want  []int64
	}{
		{1, []int64{1, 4, 7, 10, 13, 15}},
		{2, []int64{2, 6, 10, 14, 15}}, // the gap skips every other cadence round
		{4, []int64{4, 8, 12, 15}},     // the cadence floor holds past the gap
		{5, []int64{5, 10, 15}},        // the last round is a cadence round, written once
	} {
		spec := testSpec(240) // 15 rounds
		spec.CheckpointEvery = tc.every
		wantReps, wantCkpt := directRun(t, spec)

		// The clock reads a third of the gap per published round, and
		// notes the round of each commit: checkpoint reads it right
		// after every commit it counts.
		reg := telemetry.NewRegistry()
		var got []int64
		clock := func() time.Time {
			round := reg.Counter("farm/rounds").Value()
			if n := reg.Counter("farm/checkpoints").Value(); n > int64(len(got)) {
				got = append(got, round)
			}
			return time.Unix(0, 0).Add(time.Duration(round) * checkpointGap / 3)
		}
		s, err := Open(Config{Dir: t.TempDir(), Metrics: reg, now: clock})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		final := waitDone(t, s, st.ID)
		if final.Summary.Rounds != len(wantReps) {
			t.Fatalf("job ran %d rounds, want %d", final.Summary.Rounds, len(wantReps))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("CheckpointEvery %d: committed rounds %v, want %v", tc.every, got, tc.want)
		}
		if n := reg.Counter("farm/checkpoints").Value(); n != int64(len(tc.want)) {
			t.Errorf("CheckpointEvery %d: farm/checkpoints %d, want %d", tc.every, n, len(tc.want))
		}
		if reps, _ := s.Rounds(st.ID, 0); !reflect.DeepEqual(reps, wantReps) {
			t.Errorf("CheckpointEvery %d: trajectory differs from direct run", tc.every)
		}
		if got := readCheckpoint(t, s, st.ID); !bytes.Equal(got, wantCkpt) {
			t.Errorf("CheckpointEvery %d: final checkpoint differs from direct run", tc.every)
		}
		if err := s.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
	}
}

// TestFarmWatchAcrossKillBehindDurableRound: a kill lands after round 5
// was published but only round 1 is durable. The reopened daemon reads
// round 1 until its re-run catches up, a watcher that saw rounds 1-5
// and reconnects with from=5 gets round 6 next (the re-run's rounds 2-5
// are neither repeated to it nor skipped past), and the history ends
// equal to a direct run's.
func TestFarmWatchAcrossKillBehindDurableRound(t *testing.T) {
	spec := testSpec(1600) // 100 rounds: the kill lands mid-run
	wantReps, wantCkpt := directRun(t, spec)

	// A clock that never moves commits only the first cadence round.
	frozen := time.Unix(0, 0)
	cfg := Config{Dir: t.TempDir(), Addr: "127.0.0.1:0", now: func() time.Time { return frozen }}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := st.ID
	waitUntil(t, id+" past round 5", func() bool {
		reps, _ := s.Rounds(id, 0)
		return len(reps) >= 5
	})
	s.kill()
	if info, err := s.checkpointInfo(id); err != nil || info.Round != 1 {
		t.Fatalf("durable round after the kill is %d (%v), want 1", info.Round, err)
	}

	// The reopened runner waits at its first clock read, after the
	// resume and before any round, until the test lets it go.
	release := make(chan struct{})
	var once sync.Once
	cfg.now = func() time.Time {
		<-release
		return frozen
	}
	s2 := reopenAfterKill(t, s, cfg, id)
	defer s2.Stop()
	defer once.Do(func() { close(release) })
	c := NewClient(s2.Addr())
	if got, err := c.Job(id); err != nil || got.Round != 1 {
		t.Errorf("GET /jobs/%s before the re-run reads round %d (%v), want the durable round 1", id, got.Round, err)
	}
	if got, _ := s2.Rounds(id, 0); !reflect.DeepEqual(got, wantReps[:1]) {
		t.Errorf("history before the re-run:\n got %+v\nwant %+v", got, wantReps[:1])
	}

	var seen []RoundReport
	watched := make(chan error, 1)
	go func() {
		_, err := c.Watch(id, 5, func(rep RoundReport) error {
			seen = append(seen, rep)
			return nil
		})
		watched <- err
	}()
	// Give the watcher time to connect while the history is one round
	// long; the assertions hold whenever it does.
	time.Sleep(100 * time.Millisecond)
	once.Do(func() { close(release) })
	if err := <-watched; err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if !reflect.DeepEqual(seen, wantReps[5:]) {
		first := RoundReport{}
		if len(seen) > 0 {
			first = seen[0]
		}
		t.Errorf("watch from 5 got %d reports starting at round %d, want %d starting at round 6",
			len(seen), first.Round, len(wantReps)-5)
	}
	waitDone(t, s2, id)
	if got, _ := s2.Rounds(id, 0); !reflect.DeepEqual(got, wantReps) {
		t.Errorf("history after the re-run diverged from the direct run")
	}
	if got := readCheckpoint(t, s2, id); !bytes.Equal(got, wantCkpt) {
		t.Errorf("checkpoint after the re-run differs from the direct run")
	}
}

// TestFarmUnreadableCheckpointFailsJob: only a missing checkpoint means
// a fresh job. Something at the path that cannot even be stat'ed — here
// a symlink to itself — fails the job and is left as found; the daemon
// used to restart such a job from round 0 and rename over the evidence.
func TestFarmUnreadableCheckpointFailsJob(t *testing.T) {
	cfg := Config{Dir: t.TempDir()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := s.Submit(testSpec(240))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.kill() // the job stays open in the queue log, started or not

	ckpt := s.checkpointPath(st.ID)
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := os.Remove(ckpt); err != nil && !os.IsNotExist(err) {
		t.Fatalf("Remove: %v", err)
	}
	if err := os.Symlink(filepath.Base(ckpt), ckpt); err != nil {
		t.Skipf("cannot plant a symlink: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer s2.Stop()
	var got JobStatus
	waitUntil(t, st.ID+" terminal", func() bool {
		got, _ = s2.Job(st.ID)
		return got.State == JobDone || got.State == JobFailed
	})
	if got.State != JobFailed || !strings.Contains(got.Error, syscall.ELOOP.Error()) || !strings.Contains(got.Error, ckpt) {
		t.Errorf("job ended %s (%q), want failed with the stat error on %s", got.State, got.Error, ckpt)
	}
	if target, err := os.Readlink(ckpt); err != nil || target != filepath.Base(ckpt) {
		t.Errorf("checkpoint path was touched: now %q, %v", target, err)
	}
}

// TestFarmRemovesStaleCheckpointTemps: staging files a killed daemon
// left in a job directory go when the job next starts, and do not
// change what it writes.
func TestFarmRemovesStaleCheckpointTemps(t *testing.T) {
	spec := testSpec(96)
	_, wantCkpt := directRun(t, spec)

	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Stop()
	ckpt := s.checkpointPath("job-1")
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	// The staging files of two killed commits (CheckpointFile).
	for _, name := range []string{ckpt + ".tmp123456", ckpt + ".tmp654321"} {
		if err := os.WriteFile(name, wantCkpt[:len(wantCkpt)/2], 0o600); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "job-1" {
		t.Fatalf("first job is %s", st.ID)
	}
	waitDone(t, s, st.ID)

	entries, err := os.ReadDir(filepath.Dir(ckpt))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(ckpt) {
		t.Errorf("job directory holds %v, want only %s", entries, filepath.Base(ckpt))
	}
	if got := readCheckpoint(t, s, st.ID); !bytes.Equal(got, wantCkpt) {
		t.Error("checkpoint differs from the undisturbed run")
	}
}

// wantOneCheckpoint checks that a finished job's directory holds
// exactly ckpt.json, that it is want byte for byte, and that the
// checkpoint endpoint serves want.
func wantOneCheckpoint(t *testing.T, s *Server, c *Client, id string, want []byte) {
	t.Helper()
	ckpt := s.checkpointPath(id)
	entries, err := os.ReadDir(filepath.Dir(ckpt))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt.json" {
		t.Fatalf("finished job directory holds %v, want only ckpt.json", entries)
	}
	if got := readCheckpoint(t, s, id); !bytes.Equal(got, want) {
		t.Error("checkpoint file differs from a direct run's")
	}
	got, err := c.Checkpoint(id)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("served checkpoint differs from a direct run's")
	}
}

// TestFarmFinishedJobKeepsOneCheckpoint: a finished job's directory
// holds its one checkpoint file, the bytes a direct run's CheckpointFile
// writes, and serves it unchanged. A job whose done record never landed
// runs again from that file and finishes the same way.
func TestFarmFinishedJobKeepsOneCheckpoint(t *testing.T) {
	spec := testSpec(96)
	_, wantCkpt := directRun(t, spec)
	s, err := Open(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Stop()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, s, st.ID)
	wantOneCheckpoint(t, s, NewClient(s.Addr()), st.ID, wantCkpt)

	// The same job in a data directory whose queue log lost the done
	// record: its submit record and its checkpoint.
	dir := t.TempDir()
	w, _, err := openWAL(filepath.Join(dir, "queue.log"))
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	logged := spec.WithDefaults()
	raw, err := json.Marshal(walRecord{Op: "submit", ID: st.ID, Spec: &logged})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(raw); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.CopyFS(filepath.Join(dir, "jobs"), os.DirFS(filepath.Join(s.cfg.Dir, "jobs"))); err != nil {
		t.Fatalf("copy the job directory: %v", err)
	}
	s2, err := Open(Config{Dir: dir, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s2.Stop()
	if again := waitDone(t, s2, st.ID); again.Resumes != 1 {
		t.Errorf("re-run job resumed %d times, want once from its checkpoint", again.Resumes)
	}
	wantOneCheckpoint(t, s2, NewClient(s2.Addr()), st.ID, wantCkpt)
}

func TestFarmSubmitValidation(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Stop()
	for _, spec := range []JobSpec{
		{Arms: []string{"nonsense"}},
		{Arms: []string{"thehuzz", "thehuzz"}},
		{DUTs: []string{"cray-1"}},
		{MismatchWeight: 0.5},
		{MismatchWeight: 1.5, Detect: true},
		{MismatchWeight: -0.1, Detect: true},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit accepted invalid spec %+v", spec)
		}
	}
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("invalid submissions left %d jobs behind", got)
	}
}

// TestFarmHTTPRefusesMismatchWeightWithoutDetect: the spec `fuzz-bench
// campaign` refuses is refused over HTTP too, with a 400, before the
// queue log sees it.
func TestFarmHTTPRefusesMismatchWeightWithoutDetect(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Stop()
	spec := testSpec(48)
	spec.MismatchWeight = 0.5
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("submit answered %s, want 400", resp.Status)
	}
	if got := len(s.Jobs()); got != 0 {
		t.Errorf("refused submission left %d jobs behind", got)
	}
}

// TestFarmReplaysLoggedSpecWithoutValidating: a queue log written
// before a validation rule existed may hold a spec the rule refuses;
// replay runs it as logged instead of refusing to open.
func TestFarmReplaysLoggedSpecWithoutValidating(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(48).WithDefaults()
	spec.MismatchWeight = 0.5 // without Detect: Submit would refuse it
	if spec.Validate() == nil {
		t.Fatal("the planted spec passes Validate; it tests nothing")
	}
	w, _, err := openWAL(filepath.Join(dir, "queue.log"))
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	raw, err := json.Marshal(walRecord{Op: "submit", ID: "job-1", Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(raw); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open over a log holding the spec: %v", err)
	}
	defer s.Stop()
	waitDone(t, s, "job-1")
}

// oversizedSpecs are specs sized past Validate's ceilings, each a
// fleet that would allocate per shard or per test until the daemon
// died, or run a round no graceful stop could wait out.
func oversizedSpecs() []JobSpec {
	var out []JobSpec
	for _, grow := range []func(*JobSpec){
		func(s *JobSpec) { s.Body = 1_000_000_000 },
		func(s *JobSpec) { s.Body = prog.MaxBodyInstructions + 1 },
		func(s *JobSpec) { s.BatchSize = 1 << 30 },
		func(s *JobSpec) { s.Shards = 1_000_000 },
		func(s *JobSpec) { s.RoundBatches = 1 << 40 },
	} {
		spec := testSpec(48)
		grow(&spec)
		out = append(out, spec.WithDefaults())
	}
	return out
}

// TestFarmFailsLoggedOversizedSpec: a queue log written before the
// size ceilings may hold a spec they refuse. Replay queues it, and its
// worker refuses it before building anything: the job ends in a
// durable fail record, so a restart does not run it again.
func TestFarmFailsLoggedOversizedSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.log")
	w, _, err := openWAL(path)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	specs := oversizedSpecs()
	for i := range specs {
		if specs[i].Validate() == nil {
			t.Fatalf("spec %d passes Validate; it tests nothing", i)
		}
		raw, err := json.Marshal(walRecord{Op: "submit", ID: fmt.Sprintf("job-%d", i+1), Spec: &specs[i]})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(raw); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := range specs {
		id := fmt.Sprintf("job-%d", i+1)
		waitUntil(t, id+" terminal", func() bool {
			st, _ := s.Job(id)
			return st.State == JobDone || st.State == JobFailed
		})
		if st, _ := s.Job(id); st.State != JobFailed || !strings.Contains(st.Error, "over the limit") {
			t.Errorf("%s ended %s (%q), want failed over a size limit", id, st.State, st.Error)
		}
	}
	s.Stop()

	w, recs, err := openWAL(path)
	if err != nil {
		t.Fatalf("reopen queue log: %v", err)
	}
	defer w.Close()
	failed := map[string]bool{}
	for _, raw := range recs {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.Op == "fail" {
			failed[r.ID] = true
		}
	}
	if len(failed) != len(specs) {
		t.Errorf("queue log holds fail records for %v, want all %d jobs", failed, len(specs))
	}
}

// TestFarmHTTPRoundTrip drives the whole client surface against a real
// listener: submit, watch the round stream to completion, then check
// status, list, trajectory and checkpoint agree with each other.
func TestFarmHTTPRoundTrip(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Stop()
	c := NewClient(s.Addr())

	if _, err := c.Submit(JobSpec{Arms: []string{"nonsense"}}); err == nil {
		t.Fatal("server accepted an invalid spec")
	}

	spec := testSpec(48)
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID == "" || st.State != JobQueued {
		t.Fatalf("submit returned %+v", st)
	}

	var seen []RoundReport
	final, err := c.Watch(st.ID, 0, func(rep RoundReport) error {
		seen = append(seen, rep)
		return nil
	})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if final.State != JobDone {
		t.Fatalf("watched job ended %s: %s", final.State, final.Error)
	}
	if len(seen) == 0 || seen[len(seen)-1].Tests < spec.Tests {
		t.Fatalf("watch stream incomplete: %+v", seen)
	}
	for i, rep := range seen {
		if rep.Round != i+1 {
			t.Fatalf("watch stream out of order at %d: %+v", i, rep)
		}
	}

	// A resumed watch starts at the index it names, and an index that is
	// not a whole non-negative decimal number is refused, not truncated.
	var resumed []RoundReport
	if _, err := c.Watch(st.ID, 2, func(rep RoundReport) error {
		resumed = append(resumed, rep)
		return nil
	}); err != nil {
		t.Fatalf("Watch from 2: %v", err)
	}
	if !reflect.DeepEqual(resumed, seen[2:]) {
		t.Errorf("watch from 2 streamed %+v, want %+v", resumed, seen[2:])
	}
	for _, from := range []string{"5abc", "0x10", "3 7", "-1"} {
		resp, err := http.Get("http://" + s.Addr() + "/api/v1/jobs/" + st.ID + "/rounds?from=" + url.QueryEscape(from))
		if err != nil {
			t.Fatalf("GET rounds?from=%q: %v", from, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("rounds?from=%q answered %s, want 400", from, resp.Status)
		}
	}

	traj, err := c.Trajectory(st.ID)
	if err != nil {
		t.Fatalf("Trajectory: %v", err)
	}
	if !reflect.DeepEqual(traj, seen) {
		t.Errorf("trajectory %+v != watched stream %+v", traj, seen)
	}

	jobs, err := c.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("Jobs = %+v", jobs)
	}

	ckpt, err := c.Checkpoint(st.ID)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !bytes.Equal(ckpt, readCheckpoint(t, s, st.ID)) {
		t.Error("served checkpoint differs from the on-disk file")
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(ckpt, &decoded); err != nil {
		t.Fatalf("served checkpoint is not JSON: %v", err)
	}

	if _, err := c.Job("job-999"); err == nil {
		t.Error("status of unknown job succeeded")
	}
}

// TestFarmHTTPSubmitTakesOneSpec: a submission is one JSON spec and
// nothing after it but whitespace, in a body of at most maxSpecBytes.
// A second value or trailing garbage used to be ignored and the first
// spec queued.
func TestFarmHTTPSubmitTakesOneSpec(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Stop()
	spec, err := json.Marshal(testSpec(48))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"trailing object", string(spec) + `{"Tests":1}`, http.StatusBadRequest},
		{"trailing garbage", string(spec) + " trailing garbage", http.StatusBadRequest},
		{"trailing brace", string(spec) + "}", http.StatusBadRequest},
		{"oversize", string(spec) + strings.Repeat(" ", maxSpecBytes), http.StatusBadRequest},
		{"null", "null", http.StatusBadRequest},
		{"array", "[" + string(spec) + "]", http.StatusBadRequest},
		{"number", "7", http.StatusBadRequest},
		{"string", `"spec"`, http.StatusBadRequest},
		{"plain", string(spec) + "\n", http.StatusOK},
	} {
		resp, err := http.Post("http://"+s.Addr()+"/api/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: POST: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: answered %s, want %d", tc.name, resp.Status, tc.want)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 1 {
		t.Errorf("%d jobs queued, want the plain spec's one", len(jobs))
	}
}

// TestFarmTrajectoryServedFromCheckpointAfterRestart: a restarted
// daemon has no in-memory history for already-finished jobs; the watch
// stream and the trajectory endpoint both fall back to the durable
// checkpoint.
func TestFarmTrajectoryServedFromCheckpointAfterRestart(t *testing.T) {
	cfg := Config{Dir: t.TempDir()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := s.Submit(testSpec(48))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, s, st.ID)
	want, _ := s.Rounds(st.ID, 0)
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	cfg.Addr = "127.0.0.1:0"
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer s2.Stop()
	st2, ok := s2.Job(st.ID)
	if !ok || st2.State != JobDone {
		t.Fatalf("done job replayed as %+v", st2)
	}
	c := NewClient(s2.Addr())
	// Watch first: the stream must not depend on the trajectory
	// endpoint having loaded the history.
	var watched []RoundReport
	final, err := c.Watch(st.ID, 0, func(rep RoundReport) error {
		watched = append(watched, rep)
		return nil
	})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if final.State != JobDone {
		t.Fatalf("watched job ended %s", final.State)
	}
	if !reflect.DeepEqual(watched, want) {
		t.Errorf("watch stream after restart %+v != live history %+v", watched, want)
	}
	traj, err := c.Trajectory(st.ID)
	if err != nil {
		t.Fatalf("Trajectory: %v", err)
	}
	if !reflect.DeepEqual(traj, want) {
		t.Errorf("checkpoint-served trajectory %+v != live history %+v", traj, want)
	}
}
