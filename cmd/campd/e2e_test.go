package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"chatfuzz/internal/atomicio"
	"chatfuzz/internal/campaign"
	"chatfuzz/internal/farm"
)

// This is the crash drill the daemon exists to survive, run against
// the real binary: submit a campaign, SIGKILL the daemon mid-run,
// restart it on the same data directory, and require the finished
// job's trajectory and final checkpoint to be bit-identical to a
// daemon that was never killed. The in-process variant lives in
// internal/farm; this one covers the actual process boundary —
// signals, fsynced files surviving process death, and the CLI surface.

const e2eTimeout = 2 * time.Minute

func buildCampd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "campd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build campd: %v\n%s", err, out)
	}
	return bin
}

type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches campd on a free port and waits for the bound
// address to land in <data>/campd.addr.
func startDaemon(t *testing.T, bin, data string) *daemon {
	t.Helper()
	addrFile := filepath.Join(data, "campd.addr")
	// A previous incarnation's address must not be mistaken for ours.
	_ = os.Remove(addrFile)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", data)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start campd: %v", err)
	}
	deadline := time.Now().Add(e2eTimeout)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			return &daemon{cmd: cmd, addr: string(bytes.TrimSpace(b))}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("campd never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM campd: %v", err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("campd exited uncleanly on SIGTERM: %v", err)
	}
}

func e2eSpec() farm.JobSpec {
	return farm.JobSpec{Tests: 240, Shards: 2, BatchSize: 8, Seed: 11, Body: 8}
}

// runToCompletion submits the spec and watches the job to done,
// returning its trajectory and checkpoint bytes.
func runToCompletion(t *testing.T, c *farm.Client, id string) ([]farm.RoundReport, []byte) {
	t.Helper()
	st, err := c.Watch(id, 0, nil)
	if err != nil {
		t.Fatalf("watch %s: %v", id, err)
	}
	if st.State != farm.JobDone {
		t.Fatalf("%s finished %s: %s", id, st.State, st.Error)
	}
	traj, err := c.Trajectory(id)
	if err != nil {
		t.Fatalf("trajectory %s: %v", id, err)
	}
	ckpt, err := c.Checkpoint(id)
	if err != nil {
		t.Fatalf("checkpoint %s: %v", id, err)
	}
	return traj, ckpt
}

func TestCampdKillRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	bin := buildCampd(t)

	// Control: the same spec on a daemon that never dies.
	ctrl := startDaemon(t, bin, filepath.Join(t.TempDir(), "data"))
	cc := farm.NewClient(ctrl.addr)
	cst, err := cc.Submit(e2eSpec())
	if err != nil {
		t.Fatalf("submit control: %v", err)
	}
	wantTraj, wantCkpt := runToCompletion(t, cc, cst.ID)
	ctrl.stop(t)

	// Crash run: SIGKILL the daemon once the job passes round 2.
	data := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, bin, data)
	c := farm.NewClient(d.addr)
	st, err := c.Submit(e2eSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	killed := errors.New("killed")
	_, err = c.Watch(st.ID, 0, func(rep farm.RoundReport) error {
		if rep.Round >= 2 {
			if kerr := d.cmd.Process.Kill(); kerr != nil {
				return kerr
			}
			return killed
		}
		return nil
	})
	if err != nil && !errors.Is(err, killed) {
		// The stream may also die from the connection dropping under
		// the kill; both are the expected crash.
		if !strings.Contains(err.Error(), "EOF") && !strings.Contains(err.Error(), "connection") {
			t.Fatalf("watch before kill: %v", err)
		}
	}
	if err := d.cmd.Wait(); err == nil {
		t.Fatal("campd survived SIGKILL")
	}

	// Whatever instant the kill hit, the job's checkpoint slot store
	// must hold a complete readable generation.
	payload, _, err := atomicio.ReadSlots(filepath.Join(data, "jobs", st.ID, "ckpt"))
	if err != nil {
		t.Fatalf("checkpoint unreadable after SIGKILL: %v", err)
	}
	info, err := campaign.DecodeCheckpointInfo(bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("checkpoint unreadable after SIGKILL: %v", err)
	}
	if info.Round < 1 {
		t.Fatalf("checkpoint after SIGKILL at round %d", info.Round)
	}

	// Restart on the same data dir: the job must be re-queued, resumed
	// from the checkpoint, and finished bit-identically.
	d2 := startDaemon(t, bin, data)
	c2 := farm.NewClient(d2.addr)
	gotTraj, gotCkpt := runToCompletion(t, c2, st.ID)
	fst, err := c2.Job(st.ID)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if fst.Resumes < 1 {
		t.Errorf("restarted job reports %d resumes, want >= 1", fst.Resumes)
	}
	d2.stop(t)

	if !reflect.DeepEqual(gotTraj, wantTraj) {
		t.Errorf("trajectory after kill+restart diverged:\n got %+v\nwant %+v", gotTraj, wantTraj)
	}
	if !bytes.Equal(gotCkpt, wantCkpt) {
		t.Errorf("checkpoint bytes after kill+restart differ from uninterrupted run (%d vs %d bytes)",
			len(gotCkpt), len(wantCkpt))
	}
}
