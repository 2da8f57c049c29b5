package farm

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"chatfuzz/internal/atomicio"
	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
)

// runJob executes one job to completion (or until the server stops):
// build or resume the fleet, run rounds with a durable atomic
// checkpoint every CheckpointEvery barriers, publish each barrier's
// numbers to watchers, and close the job durably in the queue log.
//
// Determinism contract: everything here that shapes the trajectory is
// either in the job spec (logged) or in the checkpoint (durable), so
// a job's completed run is bit-identical no matter how many times the
// daemon died and resumed it in between.
func (s *Server) runJob(id string) {
	st, _ := s.Job(id)
	spec := st.Spec

	// The tiny test-scale pipeline: the default paper-scale one trains
	// for minutes and has no place inside a daemon worker.
	p, err := spec.Pipeline(core.TestPipelineConfig())
	if err != nil {
		s.finishJob(id, nil, err)
		return
	}
	cfg, duts, arms, err := spec.Fleet(p)
	if err != nil {
		s.finishJob(id, nil, err)
		return
	}

	ckpt := s.checkpointPath(id)
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		s.finishJob(id, nil, fmt.Errorf("farm: job dir: %w", err))
		return
	}

	// The worker is the only writer of the job directory, so a staging
	// file in it is debris of a daemon killed mid-write, never a write
	// in flight.
	if err := atomicio.RemoveTemps(ckpt); err != nil {
		s.finishJob(id, nil, fmt.Errorf("farm: %s: %w", id, err))
		return
	}

	var o *campaign.Orchestrator
	// durable is the round of the checkpoint generation on disk.
	durable := -1
	switch _, statErr := os.Stat(ckpt); {
	case statErr == nil:
		// Recovery: the checkpoint is atomic, so if the file exists it
		// is a complete generation. ResumeMixedFile validates the spec
		// against it (arm signatures, designs, coverage spaces).
		o, err = campaign.ResumeMixedFile(ckpt, duts, arms...)
		if err != nil {
			s.finishJob(id, nil, fmt.Errorf("farm: resume %s: %w", id, err))
			return
		}
		durable = o.Rounds()
		s.publishRecovered(id, o.Trajectory())
	case errors.Is(statErr, fs.ErrNotExist):
		o, err = campaign.NewMixed(cfg, duts, arms...)
		if err != nil {
			s.finishJob(id, nil, err)
			return
		}
	default:
		// Something is at the path and cannot be read (ELOOP, EACCES,
		// EIO): starting over would overwrite it with round 0's progress.
		s.finishJob(id, nil, fmt.Errorf("farm: %s checkpoint: %w", id, statErr))
		return
	}
	defer o.Close()

	// checkpoint makes the current barrier durable, unless it already
	// is: the last round of a job is both a cadence and the final
	// write, and a job parked or resumed on a barrier has it on disk.
	checkpoint := func() error {
		if o.Rounds() == durable {
			return nil
		}
		if err := o.CheckpointFile(ckpt); err != nil {
			return err
		}
		durable = o.Rounds()
		s.cfg.Metrics.Counter("farm/checkpoints").Add(1)
		return nil
	}

	for o.Tests() < spec.Tests {
		if s.stopRequested() {
			if s.isKilled() {
				// Crash simulation: abandon mid-flight. The last durable
				// checkpoint and the WAL are exactly what a kill -9
				// leaves; recovery must work from those alone.
				return
			}
			// Graceful park: make the current barrier durable and hand
			// the job back to the queue for the next daemon.
			if err := checkpoint(); err != nil {
				s.finishJob(id, nil, fmt.Errorf("farm: park checkpoint: %w", err))
				return
			}
			s.parkJob(id)
			return
		}
		if err := o.RunRound(); err != nil {
			s.finishJob(id, nil, err)
			return
		}
		s.publishRound(id, o)
		if o.Rounds()%spec.CheckpointEvery == 0 {
			if err := checkpoint(); err != nil {
				s.finishJob(id, nil, fmt.Errorf("farm: checkpoint: %w", err))
				return
			}
		}
	}
	// The final checkpoint is the job's durable artifact (the
	// trajectory endpoint reads it after restarts, and the e2e test
	// byte-compares it against an uninterrupted run's).
	if err := checkpoint(); err != nil {
		s.finishJob(id, nil, fmt.Errorf("farm: final checkpoint: %w", err))
		return
	}
	s.finishJob(id, &JobSummary{
		Rounds:   o.Rounds(),
		Tests:    o.Tests(),
		Hours:    o.Hours(),
		Coverage: o.Coverage(),
	}, nil)
}

// publishRound appends the just-committed barrier's report and wakes
// watchers.
func (s *Server) publishRound(id string, o *campaign.Orchestrator) {
	rep := RoundReport{Round: o.Rounds(), Tests: o.Tests(), Hours: o.Hours(), Coverage: o.Coverage()}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	j.rounds = append(j.rounds, rep)
	j.status.Round = rep.Round
	j.status.Tests = rep.Tests
	j.status.Coverage = rep.Coverage
	if g := s.cfg.Metrics; g != nil {
		g.Counter("farm/rounds").Add(1)
	}
	s.cond.Broadcast()
}

// publishRecovered rebuilds the report history of a resumed job from
// its checkpointed merged trajectory, so a watcher reconnecting after
// a daemon restart replays the full history — the stream is
// continuous across crashes because the trajectory is.
func (s *Server) publishRecovered(id string, traj []core.ProgressPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	j.rounds = reports(traj)
	if n := len(j.rounds); n > 0 {
		j.status.Round = n
		j.status.Tests = j.rounds[n-1].Tests
		j.status.Coverage = j.rounds[n-1].Coverage
	}
	s.cond.Broadcast()
}

// reports turns a merged trajectory into the round reports watchers
// see: point i is the fleet after round i+1.
func reports(traj []core.ProgressPoint) []RoundReport {
	out := make([]RoundReport, len(traj))
	for i, pt := range traj {
		out[i] = RoundReport{Round: i + 1, Tests: pt.Tests, Hours: pt.Hours, Coverage: pt.Coverage}
	}
	return out
}
