package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/sweep"
)

// Every output check feeding the failure count is shown here to pass on
// real output and to fail on perturbed output.

// smallCell is a figure-grid cell that simulates in milliseconds.
var smallCell = harness.RunConfig{App: "epigenome", Storage: "nfs", Workers: 2}

func smallTasks(t *testing.T) int {
	t.Helper()
	dag, err := apps.PaperScale(smallCell.App)
	if err != nil {
		t.Fatal(err)
	}
	return len(dag.Tasks)
}

func TestGoldenCheck(t *testing.T) {
	golden, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	r, err := harness.Run(smallCell)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(golden, r); err != nil {
		t.Fatalf("paper-seed result fails its golden row: %v", err)
	}
	r.Makespan = math.Nextafter(r.Makespan, math.Inf(1))
	if err := checkGolden(golden, r); err == nil {
		t.Fatal("a makespan one ulp off passed the golden check")
	}
}

func TestCompletionCheck(t *testing.T) {
	r, err := harness.Run(smallCell)
	if err != nil {
		t.Fatal(err)
	}
	tasks := smallTasks(t)
	if err := checkComplete(r, tasks); err != nil {
		t.Fatal(err)
	}
	r.Spans = append(r.Spans[:0:0], r.Spans...)
	r.Spans[0].Failed = true
	if err := checkComplete(r, tasks); err == nil {
		t.Fatal("a run missing a task passed the completion check")
	}
}

func TestReplayCheck(t *testing.T) {
	var buf bytes.Buffer
	if _, err := harness.RunRecorded(smallCell, &buf); err != nil {
		t.Fatal(err)
	}
	log := buf.Bytes()
	if err := verifyLog(log); err != nil {
		t.Fatalf("a fresh log fails verification: %v", err)
	}

	// A changed digit keeps the log well-formed, so it decodes and the
	// replay must catch the divergence.
	tampered := append([]byte(nil), log...)
	i := bytes.Index(tampered, []byte(`"t":`))
	for i = i + 4; tampered[i] < '0' || tampered[i] > '8'; i++ {
	}
	tampered[i]++
	if err := verifyLog(tampered); err == nil {
		t.Fatal("a log with a changed timestamp passed verification")
	}

	// A flipped bit anywhere must fail too, as corruption or divergence.
	for _, at := range []int{len(log) / 3, len(log) / 2, len(log) - 3} {
		flipped := append([]byte(nil), log...)
		flipped[at] ^= 0x04
		if err := verifyLog(flipped); err == nil {
			t.Fatalf("a log with bit 2 of byte %d flipped passed verification", at)
		}
	}
}

func TestComposedRunMatchesHarness(t *testing.T) {
	r, err := harness.Run(smallCell)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := compose(smallCell, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lc.makespan != r.Makespan {
		t.Fatalf("composed makespan %v, harness.Run %v", lc.makespan, r.Makespan)
	}
	if lc.events == 0 || lc.ioOps == 0 || lc.simIOs <= 0 || lc.netBytes <= 0 || lc.genNs <= 0 || lc.wmsNs <= 0 {
		t.Fatalf("composed run measured nothing: %+v", lc)
	}
	// The comparison is sharp: a composition that generated the DAG
	// with another jitter seed would not match.
	off := smallCell
	off.AppSeed = 1
	lo, err := compose(off, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lo.makespan == r.Makespan {
		t.Fatal("a differently seeded composition matched harness.Run")
	}
}

func TestComposedRecordingMatchesRunRecorded(t *testing.T) {
	var buf bytes.Buffer
	if _, err := harness.RunRecorded(smallCell, &buf); err != nil {
		t.Fatal(err)
	}
	lc, err := composedRecordVerify(smallCell, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if lc.logEvents == 0 || lc.records < int64(2*lc.logEvents) || lc.decodeNs <= 0 {
		t.Fatalf("recording counts: %+v", lc)
	}
	other := buf.Bytes()[:buf.Len()-1]
	if _, err := composedRecordVerify(smallCell, other); err == nil {
		t.Fatal("a composed log matched a truncated RunRecorded log")
	}
}

func TestWarmRowsCheck(t *testing.T) {
	if err := checkWarmRows([]byte(`[{"makespan_s":1}]`), []byte(`[{"makespan_s":1}]`)); err != nil {
		t.Fatal(err)
	}
	if err := checkWarmRows([]byte(`[{"makespan_s":1}]`), []byte(`[{"makespan_s":2}]`)); err == nil {
		t.Fatal("differing warm rows passed")
	}
}

func TestCachedUpdateIsAFailure(t *testing.T) {
	var g cacheGuard
	g.observe(sweep.Update[harness.RunConfig, *harness.RunResult]{})
	var tally passResult
	g.check(&tally)
	if tally.failed != 0 {
		t.Fatalf("a simulated update failed: %+v", tally)
	}
	g.observe(sweep.Update[harness.RunConfig, *harness.RunResult]{Cached: true})
	g.check(&tally)
	if tally.failed != 1 {
		t.Fatalf("a cached update did not fail: %+v", tally)
	}
}

func TestDeterminismCheck(t *testing.T) {
	n := 0
	w := &workload{ops: func(*inputs) []op {
		return []op{func() passResult {
			n++
			time.Sleep(2 * time.Millisecond)
			return passResult{ops: 3, fingerprint: strings.Repeat("x", n%2)}
		}}
	}}
	tally := measure(w, &inputs{}, 0.02, &record{}, nil)
	if n < 2 || tally.failed == 0 {
		t.Fatalf("%d passes with changing results gave %d failures", n, tally.failed)
	}
}

func TestPaperPass(t *testing.T) {
	golden, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{golden: golden, tasks: map[string]int{}}
	pct, tally := paperPass(in)
	if tally.failed != 0 || pct <= 0 || pct > paperTolerancePct {
		t.Fatalf("paper pass: %.3f%%, %+v", pct, tally)
	}
	g := golden["broadband/nfs/4"]
	g.Makespan++
	golden["broadband/nfs/4"] = g
	if _, tally := paperPass(in); tally.failed == 0 {
		t.Fatal("a drifted golden row passed the paper pass")
	}
}

func TestSeedSelectsCells(t *testing.T) {
	w, err := workloadByName("replay-verify")
	if err != nil {
		t.Fatal(err)
	}
	paper, err := setup(w, 0, "..")
	if err != nil {
		t.Fatal(err)
	}
	other, err := setup(w, 7, "..")
	if err != nil {
		t.Fatal(err)
	}
	if !paper.paper || other.paper {
		t.Fatal("paper flag wrong")
	}
	for i, c := range paper.cells {
		if c.Seed != 0 || c.AppSeed != 0 {
			t.Fatalf("paper-seed cell %d reseeded: %+v", i, c)
		}
		if o := other.cells[i]; o.Seed == 0 || o.AppSeed == 0 || o.Storage != c.Storage {
			t.Fatalf("seed 7 cell %d not reseeded: %+v", i, o)
		}
	}
}

func TestBadInvocationsFail(t *testing.T) {
	out := t.TempDir()
	for _, args := range [][]string{
		{"--workload", "no-such-workload", "--repo", "..", "--out", out},
		{"--workload", "paper-grid", "--repo", out, "--out", out},
		{"--workload", "paper-grid", "--trace", "2"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}

// TestConcurrentComposedRuns runs composed cells on two workers sharing
// one DAG, as the traced paper-grid pass does; run it with -race.
func TestConcurrentComposedRuns(t *testing.T) {
	dag, err := apps.PaperScale(smallCell.App)
	if err != nil {
		t.Fatal(err)
	}
	var units []unit
	for i, sys := range []string{"nfs", "s3", "gluster-nufa", "pvfs"} {
		cfg := smallCell
		cfg.Storage = sys
		units = append(units, unit{cell: i, cfg: cfg})
	}
	got := make([]float64, len(units))
	pool(2, units, func(i int, u unit) {
		lc, err := compose(u.cfg, dag, nil)
		if err != nil {
			t.Error(err)
		}
		got[i] = lc.makespan
	})
	for i, u := range units {
		r, err := harness.Run(u.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != r.Makespan {
			t.Errorf("%s: composed %v, harness.Run %v", cellLabel(u.cfg), got[i], r.Makespan)
		}
	}
}
