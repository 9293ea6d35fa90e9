package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/workflow"
)

// replayWorkflow builds the scaled-down Montage instance the replay
// tests share. Small enough that recording every backend twice stays
// fast, large enough that the schedule has real contention.
func replayWorkflow(t *testing.T) *workflow.Workflow {
	t.Helper()
	w, err := apps.Montage(apps.MontageConfig{Images: 10})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// replayWorkers picks a worker count the backend supports: its minimum,
// at least 2 so the schedule is genuinely concurrent, except local
// which requires exactly one node.
func replayWorkers(t *testing.T, name string) int {
	t.Helper()
	sys, err := storage.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if name == "local" {
		return 1
	}
	n := sys.MinWorkers()
	if n < 2 {
		n = 2
	}
	return n
}

// TestReplayVerifyAllBackends is the acceptance bar for the replay
// layer: for every storage backend, a recorded run replays to a
// byte-identical event stream.
func TestReplayVerifyAllBackends(t *testing.T) {
	t.Parallel()
	w := replayWorkflow(t)
	for _, name := range storage.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{
				App: "montage", Storage: name,
				Workers: replayWorkers(t, name), Workflow: w,
			}
			var buf bytes.Buffer
			if _, err := RunRecorded(cfg, &buf); err != nil {
				t.Fatal(err)
			}
			_, v, err := ReplayVerify(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !v.Match {
				t.Fatalf("replay diverged at seq %d: %s", v.Seq, v.Detail)
			}
			if v.Events == 0 {
				t.Fatal("recorded log has no events")
			}
		})
	}
}

// TestReplayVerifyFailureOutageCheckpoint replays the hard mode: failure
// injection, correlated outages and checkpointing all on, exercising
// the retry, kill and checkpoint event paths.
func TestReplayVerifyFailureOutageCheckpoint(t *testing.T) {
	t.Parallel()
	cfg := RunConfig{
		App: "montage", Storage: "nfs", Workers: 2,
		Workflow:    replayWorkflow(t),
		FailureRate: 0.2, OutageRate: 30, OutageDuration: 5,
		CheckpointInterval: 2,
	}
	var buf bytes.Buffer
	r, err := RunRecorded(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Retries == 0 {
		t.Fatal("test premise broken: no retries were injected")
	}
	_, v, err := ReplayVerify(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("replay diverged at seq %d: %s", v.Seq, v.Detail)
	}
}

// TestRecordedMatchesUnrecorded pins the single emission path from the
// other side: recording must not perturb the simulation, so a recorded
// run's spans, counters and result row equal the plain run's bit for
// bit — also when failures, outages and checkpoints fire.
func TestRecordedMatchesUnrecorded(t *testing.T) {
	t.Parallel()
	w := replayWorkflow(t)
	for _, cfg := range []RunConfig{
		{App: "montage", Storage: "gluster-nufa", Workers: 2, Workflow: w},
		{
			App: "montage", Storage: "gluster-nufa", Workers: 2, Workflow: w,
			FailureRate: 0.2, OutageRate: 30, OutageDuration: 5,
			CheckpointInterval: 2,
		},
	} {
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		recorded, err := RunRecorded(cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.FailureRate > 0 && (plain.Failures == 0 || plain.OutageKills == 0 || plain.Checkpoints == 0) {
			t.Fatalf("test premise broken: no failure, kill or checkpoint in %+v", plain.Counters)
		}
		pj, _ := json.Marshal(plain.JSONRow())
		rj, _ := json.Marshal(recorded.JSONRow())
		if !bytes.Equal(pj, rj) {
			t.Errorf("recording perturbed the run:\nplain:    %s\nrecorded: %s", pj, rj)
		}
		if plain.Counters != recorded.Counters {
			t.Errorf("recording changed the counters:\nplain:    %+v\nrecorded: %+v", plain.Counters, recorded.Counters)
		}
		if !reflect.DeepEqual(plain.Spans, recorded.Spans) {
			t.Errorf("recording changed the spans (%d plain, %d recorded)", len(plain.Spans), len(recorded.Spans))
		}
	}
}

// TestReplayVerifyCorruptLog asserts the verifier refuses a damaged log
// with the decoder's typed error instead of replaying garbage.
func TestReplayVerifyCorruptLog(t *testing.T) {
	t.Parallel()
	cfg := RunConfig{
		App: "montage", Storage: "local", Workers: 1,
		Workflow: replayWorkflow(t),
	}
	var buf bytes.Buffer
	if _, err := RunRecorded(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x01
	_, v, err := ReplayVerify(data)
	if err == nil {
		// A flipped bit can land inside a numeric literal and still
		// decode; then the replay must report a divergence instead.
		if v.Match {
			t.Fatal("corrupt log verified clean")
		}
		return
	}
	var ce *eventlog.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt log failed with %T (%v), want *eventlog.CorruptError", err, err)
	}
}

// TestSweepRecordedDeterminism extends the sweep engine's determinism
// bar to event logs: the same recorded cells at -parallel 1 and
// -parallel 8 yield byte-identical streams, in input order.
func TestSweepRecordedDeterminism(t *testing.T) {
	t.Parallel()
	w := replayWorkflow(t)
	cfgs := []RunConfig{
		{App: "montage", Storage: "nfs-sync", Workers: 2, Workflow: w},
		{App: "montage", Storage: "pvfs", Workers: 2, Workflow: w},
		{App: "montage", Storage: "s3", Workers: 2, Workflow: w},
	}
	serial, err := SweepRecorded(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := SweepRecorded(cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(concurrent) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(concurrent))
	}
	for i := range serial {
		if !bytes.Equal(serial[i].Log, concurrent[i].Log) {
			t.Errorf("cell %d (%s): logs differ between -parallel 1 and -parallel 8",
				i, cfgs[i].Storage)
		}
	}
}

// TestGoldenEventLog pins the exact byte stream of one small recorded
// cell, so any change to the event schema, the emission order or the
// framing is a deliberate golden update, never silent drift.
//
// Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenEventLog -update-golden
func TestGoldenEventLog(t *testing.T) {
	t.Parallel()
	w, err := apps.Montage(apps.MontageConfig{Images: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{App: "montage", Storage: "nfs-sync", Workers: 2, Workflow: w}
	var buf bytes.Buffer
	if _, err := RunRecorded(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "golden_montage_nfs-sync.wfevt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden event log (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Decode both sides for a readable first divergence.
		_, ge, gt, gerr := eventlog.Decode(got)
		_, we, wt, werr := eventlog.Decode(want)
		if gerr != nil || werr != nil {
			t.Fatalf("event log drifted and decode failed (got: %v, want: %v)", gerr, werr)
		}
		seq, detail := firstDivergence(we, ge, wt, gt)
		t.Fatalf("event log drifted from golden at seq %d: %s", seq, detail)
	}
	// The golden must also replay-verify: the embedded workflow and spec
	// alone reconstruct the run.
	_, v, err := ReplayVerify(want)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("golden log does not replay-verify: seq %d: %s", v.Seq, v.Detail)
	}
}
