package main

import (
	"bytes"
	"fmt"
	"runtime"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/workflow"
)

// gridSeeds is the replicate count of the paper-grid workload. On a
// 2-CPU host one pass takes about 5 s; see README.md for the sizing.
const gridSeeds = 2

// workload is one named input set: the cells it runs, the untraced
// end-to-end pass over them, and the traced pass that measures layers.
// BENCHMARK.json says why each workload is there.
type workload struct {
	name  string
	cells func() []harness.RunConfig
	// ops splits one end-to-end pass into operations that are timed one
	// by one. Each runs through the public harness entry points, with no
	// memo and no result cache, and checks its outputs.
	ops func(in *inputs) []op
	// traced measures the layers: see traced.go.
	traced func(in *inputs, out *traceOutput) passResult
}

var workloads = []*workload{
	{
		name:  "paper-grid",
		cells: paperGridCells,
		ops: func(in *inputs) []op {
			return []op{func() passResult { _, tally := gridPass(in, nil); return tally }}
		},
		traced: tracePaperGrid,
	},
	{
		name: "scale-pvfs128",
		cells: func() []harness.RunConfig {
			return []harness.RunConfig{{App: "montage", Storage: "pvfs", Workers: 128}}
		},
		ops:    perCell(runCell),
		traced: traceScale,
	},
	{
		name:   "replay-verify",
		cells:  replayCells,
		ops:    perCell(replayCell),
		traced: traceReplay,
	},
}

func workloadByName(name string) (*workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// paperGridCells is Figures 2-7's grid for each application, plus the
// Broadband cell with the m2.4xlarge NFS server (Section V.C).
func paperGridCells() []harness.RunConfig {
	var cfgs []harness.RunConfig
	for _, app := range []string{"montage", "epigenome", "broadband"} {
		cfgs = append(cfgs, harness.GridConfigs(app)...)
	}
	return append(cfgs, harness.RunConfig{App: "broadband", Storage: "nfs-m2.4xlarge", Workers: 4})
}

func replayCells() []harness.RunConfig {
	var cfgs []harness.RunConfig
	for _, sys := range []string{"nfs", "gluster-nufa", "s3", "pvfs"} {
		cfgs = append(cfgs, harness.RunConfig{App: "montage", Storage: sys, Workers: 8})
	}
	return cfgs
}

type dagKey struct {
	app  string
	seed uint64
}

// inputs is what set-up builds from the workload seed.
type inputs struct {
	// paper is true when the cells are the paper's own configurations;
	// only then do golden comparisons apply.
	paper  bool
	nproc  int
	cells  []harness.RunConfig
	dags   map[dagKey]*workflow.Workflow
	tasks  map[string]int // task count per application
	golden map[string]goldenCell
	// scratch is a directory inside the checkout for temporary files.
	scratch string
}

// isPaperSeed reports whether a workload seed selects the paper's own
// cells: the default seed, and 0 (which scenario.Reseed maps back to
// every default).
func isPaperSeed(seed uint64) bool { return seed == scenario.DefaultSeed || seed == 0 }

// setup builds a workload's inputs: its cells (reseeded through
// scenario unless the seed is the paper's), the base DAG of every
// (application, jitter seed) they use, and the golden rows.
func setup(w *workload, seed uint64, repo string) (*inputs, error) {
	golden, err := loadGolden(repo)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		paper:  isPaperSeed(seed),
		nproc:  runtime.NumCPU(),
		dags:   make(map[dagKey]*workflow.Workflow),
		tasks:  make(map[string]int),
		golden: golden,
	}
	for _, cfg := range w.cells() {
		if !in.paper {
			spec := cfg.Spec()
			scenario.Reseed(&spec, seed)
			cfg = harness.SpecConfig(spec)
		}
		in.cells = append(in.cells, cfg)
		k := dagKey{cfg.App, cfg.AppSeed}
		if in.dags[k] != nil {
			continue
		}
		dag, err := apps.PaperScaleSeeded(cfg.App, cfg.AppSeed)
		if err != nil {
			return nil, err
		}
		in.dags[k] = dag
		in.tasks[cfg.App] = len(dag.Tasks)
	}
	return in, nil
}

// passResult counts one pass's operations and the ones that failed.
type passResult struct {
	ops      int
	failed   int
	problems []string
	// fingerprint digests the results; every repeat of an operation
	// must reproduce its first one's.
	fingerprint string
	results     []*harness.RunResult
}

func (tally *passResult) fail(err error) {
	tally.failed++
	if len(tally.problems) < 8 {
		tally.problems = append(tally.problems, err.Error())
	}
}

// cacheGuard counts sweep updates served from a cache. Every run of
// an end-to-end pass must simulate, so each one is a failure.
type cacheGuard struct{ cached int }

func (g *cacheGuard) observe(u sweep.Update[harness.RunConfig, *harness.RunResult]) {
	if u.Cached {
		g.cached++
	}
}

func (g *cacheGuard) check(tally *passResult) {
	if g.cached > 0 {
		tally.failed += g.cached
		tally.problems = append(tally.problems, fmt.Sprintf("%d run(s) served from a cache", g.cached))
	}
}

// gridPass sweeps the cells through harness.SweepSeeds with no memo
// and no result cache. onUpdate, if set, sees every Progress update.
func gridPass(in *inputs, onUpdate func(sweep.Update[harness.RunConfig, *harness.RunResult])) ([]harness.Replicated, passResult) {
	var tally passResult
	var guard cacheGuard
	reps, err := harness.SweepSeeds(in.cells, harness.SweepOptions{
		Parallel: in.nproc,
		Seeds:    gridSeeds,
		NoMemo:   true,
		Progress: func(u sweep.Update[harness.RunConfig, *harness.RunResult]) {
			guard.observe(u)
			if onUpdate != nil {
				onUpdate(u)
			}
		},
	})
	tally.ops = len(in.cells) * gridSeeds
	if err != nil {
		tally.fail(err)
		tally.failed = tally.ops
		return nil, tally
	}
	guard.check(&tally)
	for _, rep := range reps {
		for i, r := range rep.Runs {
			if err := checkComplete(r, in.tasks[r.Config.App]); err != nil {
				tally.fail(err)
			} else if i == 0 && in.paper {
				if err := checkGolden(in.golden, r); err != nil {
					tally.fail(err)
				}
			}
			tally.results = append(tally.results, r)
		}
	}
	tally.fingerprint = fingerprint(tally.results)
	return reps, tally
}

// op is one timed operation of an end-to-end pass.
type op func() passResult

// perCell makes a pass of one operation per cell, each running that
// cell with run.
func perCell(run func(in *inputs, cfg harness.RunConfig) passResult) func(in *inputs) []op {
	return func(in *inputs) []op {
		ops := make([]op, len(in.cells))
		for i, cfg := range in.cells {
			ops[i] = func() passResult { return run(in, cfg) }
		}
		return ops
	}
}

// runCell runs one cell through harness.Run.
func runCell(in *inputs, cfg harness.RunConfig) passResult {
	r, err := safeRun(cfg)
	if err == nil {
		err = checkComplete(r, in.tasks[cfg.App])
	}
	return cellResult(r, err)
}

// replayCell records one cell to memory with harness.RunRecorded and
// replay-verifies the log with harness.ReplayVerify.
func replayCell(in *inputs, cfg harness.RunConfig) passResult {
	return cellResult(recordVerify(cfg, in.tasks[cfg.App]))
}

func cellResult(r *harness.RunResult, err error) passResult {
	tally := passResult{ops: 1}
	if err != nil {
		tally.fail(err)
		return tally
	}
	tally.results = []*harness.RunResult{r}
	tally.fingerprint = fingerprint(tally.results)
	return tally
}

// recordVerify is one record+verify operation.
func recordVerify(cfg harness.RunConfig, tasks int) (r *harness.RunResult, err error) {
	defer recoverTo(&err)
	var buf bytes.Buffer
	r, err = harness.RunRecorded(cfg, &buf)
	if err != nil {
		return nil, err
	}
	if err := checkComplete(r, tasks); err != nil {
		return nil, err
	}
	return r, verifyLog(buf.Bytes())
}

// verifyLog replays a recorded log and fails unless the replay
// reproduces it byte for byte.
func verifyLog(log []byte) (err error) {
	defer recoverTo(&err)
	_, v, err := harness.ReplayVerify(log)
	if err != nil {
		return err
	}
	if !v.Match {
		return fmt.Errorf("replay diverged at event %d: %s", v.Seq, v.Detail)
	}
	return nil
}

func safeRun(cfg harness.RunConfig) (r *harness.RunResult, err error) {
	defer recoverTo(&err)
	return harness.Run(cfg)
}

// recoverTo turns a panic into an error, so a panicking operation
// counts as failed instead of ending the run.
func recoverTo(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}

// paperPass runs the cells behind paper_err_pct at the paper seed,
// whatever the workload seed, and checks them against the golden file
// and the paper tolerance.
func paperPass(in *inputs) (float64, passResult) {
	var tally passResult
	tasks, err := broadbandTasks(in)
	if err != nil {
		tally.ops = len(paperValues)
		tally.fail(err)
		tally.failed = tally.ops
		return 0, tally
	}
	for _, pv := range paperValues {
		tally.ops++
		r, err := safeRun(pv.cfg)
		if err == nil {
			err = checkComplete(r, tasks)
		}
		if err == nil {
			err = checkGolden(in.golden, r)
		}
		if err != nil {
			tally.fail(err)
			continue
		}
		tally.results = append(tally.results, r)
	}
	if tally.failed > 0 {
		return 0, tally
	}
	pct := paperErrPct(tally.results)
	if pct > paperTolerancePct {
		tally.fail(fmt.Errorf("paper_err_pct %.2f exceeds %.0f%%", pct, paperTolerancePct))
	}
	return pct, tally
}

func broadbandTasks(in *inputs) (int, error) {
	if n, ok := in.tasks["broadband"]; ok {
		return n, nil
	}
	dag, err := apps.PaperScale("broadband")
	if err != nil {
		return 0, err
	}
	return len(dag.Tasks), nil
}
