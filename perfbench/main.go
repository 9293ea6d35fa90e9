// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator through its public entry points, checks
// the outputs, and prints end-to-end metrics (or, with -trace 1,
// per-layer metrics from a separate traced run). See README.md.
//
//	perfbench -workload paper-grid -seed 24301 -seconds 30 -trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"wall_s":{"value":..,"unit":"s"},..}}
//
// A fuller record (host facts, every timed operation, the problems
// found, and for traced runs the CPU attribution and the raw profile)
// is written to the -out directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ec2wfsim/internal/scenario"
)

// setupRepsPerOp is how many times a run repeats its set-up before
// each timed operation. setup_s is the median of these repetitions:
// they all run in the same warm process and span the run as the
// operations do.
const setupRepsPerOp = 2

func main() { os.Exit(run(os.Args[1:])) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the fuller result file.
type record struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	PaperSeed bool      `json:"paper_seed"`
	Trace     int       `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Host      hostFacts `json:"host"`
	// FirstSetupS is the set-up that built the inputs, a fresh
	// process's; SetupS are the repetitions setup_s is the median of.
	FirstSetupS float64    `json:"first_setup_s"`
	SetupS      []float64  `json:"setup_s_samples,omitempty"`
	Passes      int        `json:"passes,omitempty"`
	Timings     []opTiming `json:"op_timings,omitempty"`
	PeakRSSMB   float64    `json:"peak_rss_mb,omitempty"`
	Result      result     `json:"result"`
	// FailedRatio is failed / attempted: 0 on a healthy build, which is
	// why it is not one of the contract's metrics.
	FailedRatio float64      `json:"failed_ratio"`
	Problems    []string     `json:"problems,omitempty"`
	Profile     string       `json:"profile,omitempty"`
	Rules       any          `json:"attribution_rules,omitempty"`
	Attrib      *attribution `json:"attribution,omitempty"`
	// UntracedS and TracedS are the walls trace.overhead_x divides.
	UntracedS float64 `json:"untraced_s,omitempty"`
	TracedS   float64 `json:"traced_s,omitempty"`
}

// opTiming is one timed operation: the index of the operation in its
// pass, its host and CPU seconds, and the seconds the hypervisor gave
// the machine's CPUs to others meanwhile (steal in /proc/stat, summed
// over CPUs), which shows when the host, not the program, was slow.
type opTiming struct {
	Op     int     `json:"op"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	StealS float64 `json:"steal_s"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-grid, scale-pvfs128 or replay-verify")
	seed := fs.Uint64("seed", scenario.DefaultSeed, "workload seed; the default (and 0) is the paper's, any other reseeds every cell")
	seconds := fs.Float64("seconds", 10, "repeat the timed operations until this many seconds have gone")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	repo := fs.String("repo", ".", "repository root (holds go.mod and the golden files)")
	outDir := fs.String("out", filepath.Join("perfbench", "out"), "directory for result files and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	rec, err := execute(*name, *seed, *seconds, *trace, *repo, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func execute(name string, seed uint64, seconds float64, trace int, repo, outDir string) (*record, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(repo, "go.mod")); err != nil {
		return nil, fmt.Errorf("repository root %q: %w", repo, err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rec := &record{
		Workload: name, Seed: seed, PaperSeed: isPaperSeed(seed),
		Trace: trace, Seconds: seconds, Host: readHostFacts(repo),
	}

	t := time.Now()
	in, err := setup(w, seed, repo)
	if err != nil {
		return nil, err
	}
	rec.FirstSetupS = time.Since(t).Seconds()
	in.scratch = outDir
	resetup := func() error {
		runtime.GC()
		t := time.Now()
		if _, err := setup(w, seed, repo); err != nil {
			return err
		}
		rec.SetupS = append(rec.SetupS, time.Since(t).Seconds())
		return nil
	}

	metrics := map[string]metric{}
	var tally passResult
	if trace == 0 {
		tally = measure(w, in, seconds, rec, resetup)
		wall, cpu := passMedians(rec.Timings)
		metrics["wall_s"] = metric{wall, "s"}
		metrics["cpu_s"] = metric{cpu, "s"}
		metrics["peak_rss_mb"] = metric{rec.PeakRSSMB, "MB"}
		metrics["setup_s"] = metric{median(rec.SetupS), "s"}
	} else {
		out := &traceOutput{metrics: map[string]float64{}}
		tally = w.traced(in, out)
		for _, m := range perLayer {
			metrics[m.name] = metric{out.metrics[m.name], m.unit}
		}
		if out.profile != nil {
			rec.Profile = fmt.Sprintf("%s-seed%d.cpu.pprof", name, seed)
			if err := os.WriteFile(filepath.Join(outDir, rec.Profile), out.profile, 0o644); err != nil {
				return nil, err
			}
			rec.Rules, rec.Attrib = attributionRules(), out.attribution
		}
		rec.UntracedS, rec.TracedS = out.untracedS, out.tracedS
	}

	// paper_err_pct comes from the paper's cells at the paper seed,
	// outside the measured passes, in every run.
	pct, paper := paperPass(in)
	if trace == 0 {
		metrics["paper_err_pct"] = metric{pct, "%"}
	}
	tally.ops += paper.ops
	tally.failed += paper.failed
	tally.problems = append(tally.problems, paper.problems...)

	rec.Result = result{
		Correct:   tally.failed == 0,
		Attempted: tally.ops,
		Failed:    tally.failed,
		Metrics:   metrics,
	}
	rec.Problems = tally.problems
	if tally.ops == 0 {
		return nil, errors.New("no operation ran")
	}
	rec.FailedRatio = float64(tally.failed) / float64(tally.ops)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	for _, p := range tally.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, %d/%d operations failed, nproc %d, %s; details in %s\n",
		name, seed, rec.Passes, tally.failed, tally.ops, rec.Host.NumCPU, runtime.Version(), file)
	return rec, nil
}

// measure runs the workload's operations in turn, pass after pass,
// until seconds have gone and at least one whole pass has run, timing
// each operation on its own. Every repeat of an operation must
// reproduce its first result. Before each operation, untimed, it
// repeats the set-up setupRepsPerOp times with resetup, if set. The
// first pass's peak resident memory is a fresh process's; later passes
// also hold whatever earlier ones leaked (see README.md).
func measure(w *workload, in *inputs, seconds float64, rec *record, resetup func() error) passResult {
	var total passResult
	ops := w.ops(in)
	first := make([]string, len(ops))
	start := time.Now()
	for pass := 0; ; pass++ {
		for i, o := range ops {
			if pass > 0 && time.Since(start).Seconds() >= seconds {
				return total
			}
			for r := 0; resetup != nil && r < setupRepsPerOp; r++ {
				if err := resetup(); err != nil {
					total.ops++
					total.fail(err)
				}
			}
			// Each operation starts from a collected heap, so the
			// garbage of the one before does not land on it. The first
			// also starts with the heap returned to the OS, for its
			// peak resident memory; the others keep it mapped, so they
			// do not time page faults.
			if pass > 0 || i > 0 {
				runtime.GC()
			} else {
				debug.FreeOSMemory()
				if err := resetPeakRSS(); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: peak_rss_mb covers the whole process:", err)
				}
			}
			s0, c0, t0 := stealTime(), cpuTime(), time.Now()
			tally := o()
			rec.Timings = append(rec.Timings, opTiming{
				Op:     i,
				WallS:  time.Since(t0).Seconds(),
				CPUS:   (cpuTime() - c0).Seconds(),
				StealS: (stealTime() - s0).Seconds(),
			})
			total.ops += tally.ops
			total.failed += tally.failed
			total.problems = append(total.problems, tally.problems...)
			switch {
			case pass == 0:
				first[i] = tally.fingerprint
			case tally.fingerprint != first[i]:
				total.failed += tally.ops - tally.failed
				total.problems = append(total.problems, fmt.Sprintf("pass %d: operation %d results differ from pass 1", pass+1, i+1))
			}
		}
		if pass == 0 {
			rec.PeakRSSMB = peakRSSMB()
		}
		rec.Passes++
	}
}

// passMedians estimates one pass's host and CPU seconds as the sum,
// over the pass's operations, of each operation's median: a stall of
// the host then costs one sample of one operation, not a whole pass.
func passMedians(ts []opTiming) (wall, cpu float64) {
	walls := map[int][]float64{}
	cpus := map[int][]float64{}
	for _, t := range ts {
		walls[t.Op] = append(walls[t.Op], t.WallS)
		cpus[t.Op] = append(cpus[t.Op], t.CPUS)
	}
	for op := range walls {
		wall += median(walls[op])
		cpu += median(cpus[op])
	}
	return wall, cpu
}
