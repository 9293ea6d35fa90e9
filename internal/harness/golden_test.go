package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden file pins the simulation's paper numbers: Table I, all
// three application grids (Figures 2-7 data), the nfssync ablation, a
// failure-ablation row and an outage-ablation row. Any refactor that
// perturbs a makespan or cost — including changes to the sweep engine,
// the flow network or the RNG — fails here before it can silently drift
// the reproduction away from the paper.
//
// Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

type goldenCell struct {
	Label      string  `json:"label"`
	Makespan   float64 `json:"makespan_s"`
	CostHour   float64 `json:"cost_per_hour"`
	CostSecond float64 `json:"cost_per_second"`
}

// goldenFailureCell extends a golden cell with the failure counters a
// failure-ablation row pins.
type goldenFailureCell struct {
	Label      string  `json:"label"`
	Makespan   float64 `json:"makespan_s"`
	CostSecond float64 `json:"cost_per_second"`
	Failures   int64   `json:"failures"`
	Retries    int64   `json:"retries"`
}

// goldenOutageCell pins the counters an outage-ablation row adds on top
// of the timing numbers.
type goldenOutageCell struct {
	Label       string  `json:"label"`
	Makespan    float64 `json:"makespan_s"`
	CostSecond  float64 `json:"cost_per_second"`
	Outages     int64   `json:"outages"`
	OutageKills int64   `json:"outage_kills"`
	Checkpoints int64   `json:"checkpoints"`
	LostWork    float64 `json:"lost_work_s"`
}

type goldenData struct {
	TableI        []string            `json:"table1_rows"`
	MontageGrid   []goldenCell        `json:"montage_grid"`
	EpigenomeGrid []goldenCell        `json:"epigenome_grid"`
	BroadbandGrid []goldenCell        `json:"broadband_grid"`
	NFSSync       []goldenCell        `json:"nfssync_ablation"`
	Failure       []goldenFailureCell `json:"failure_ablation"`
	Outage        []goldenOutageCell  `json:"outage_ablation"`
}

func collectGolden(t *testing.T) goldenData {
	t.Helper()
	var g goldenData
	tb, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split([]byte(tb.String()), []byte("\n")) {
		if len(line) > 0 {
			g.TableI = append(g.TableI, string(line))
		}
	}
	grid := func(app string) []goldenCell {
		cells, err := Grid(app, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]goldenCell, 0, len(cells))
		for _, c := range cells {
			out = append(out, goldenCell{
				Label:      fmt.Sprintf("%s/%d", c.System, c.Workers),
				Makespan:   c.Result.Makespan,
				CostHour:   c.Result.CostHour.Total(),
				CostSecond: c.Result.CostSecond.Total(),
			})
		}
		return out
	}
	g.MontageGrid = grid("montage")
	g.EpigenomeGrid = grid("epigenome")
	g.BroadbandGrid = grid("broadband")
	results, _, err := Ablation("nfssync")
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range results {
		g.NFSSync = append(g.NFSSync, goldenCell{
			Label:      ar.Label,
			Makespan:   ar.Result.Makespan,
			CostHour:   ar.Result.CostHour.Total(),
			CostSecond: ar.Result.CostSecond.Total(),
		})
	}
	// One failure-ablation row (baseline + injected) pins the failure
	// plumbing: rate, default retries and the fixed failure seed all feed
	// the simulation through RunConfig, so any drift in the injection
	// path or its CellKey handling fails here.
	for _, rate := range []float64{0, 0.1} {
		r, err := RunCached(RunConfig{
			App: "montage", Storage: "pvfs",
			Workers: DefaultFailureStudyWorkers, FailureRate: rate,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Failure = append(g.Failure, goldenFailureCell{
			Label:      fmt.Sprintf("montage/pvfs r=%g", rate),
			Makespan:   r.Makespan,
			CostSecond: r.CostSecond.Total(),
			Failures:   r.Failures,
			Retries:    r.Retries,
		})
	}
	// One outage-ablation pair (baseline + outages with checkpointing)
	// pins the correlated-failure plumbing: the outage schedule, the
	// kill/restart path and the checkpoint traffic all feed the
	// simulation through RunConfig, so any drift in the outage subsystem
	// or its CellKey handling fails here.
	for _, rate := range []float64{0, 1} {
		r, err := RunCached(RunConfig{
			App: "montage", Storage: "pvfs",
			Workers: DefaultOutageStudyWorkers, OutageRate: rate,
			CheckpointInterval: DefaultOutageStudyCheckpoint,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Outage = append(g.Outage, goldenOutageCell{
			Label:       fmt.Sprintf("montage/pvfs out=%g +ckpt", rate),
			Makespan:    r.Makespan,
			CostSecond:  r.CostSecond.Total(),
			Outages:     r.Outages,
			OutageKills: r.OutageKills,
			Checkpoints: r.Checkpoints,
			LostWork:    r.LostWorkSeconds,
		})
	}
	return g
}

// TestGoldenPaperNumbers compares today's simulation against the pinned
// values exactly: the simulator is deterministic, so float64 equality
// through the JSON round-trip is the correct bar (encoding/json emits
// the shortest representation that round-trips).
func TestGoldenPaperNumbers(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale grid")
	}
	got := collectGolden(t)
	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	var want goldenData
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for i, row := range want.TableI {
		if i >= len(got.TableI) || got.TableI[i] != row {
			t.Errorf("Table I row %d drifted:\n got: %q\nwant: %q", i, at(got.TableI, i), row)
		}
	}
	compareCells(t, "montage grid", got.MontageGrid, want.MontageGrid)
	compareCells(t, "epigenome grid", got.EpigenomeGrid, want.EpigenomeGrid)
	compareCells(t, "broadband grid", got.BroadbandGrid, want.BroadbandGrid)
	compareCells(t, "nfssync ablation", got.NFSSync, want.NFSSync)
	if len(got.Failure) != len(want.Failure) {
		t.Errorf("failure ablation: %d cells, golden has %d", len(got.Failure), len(want.Failure))
	} else {
		for i := range want.Failure {
			if got.Failure[i] != want.Failure[i] {
				t.Errorf("failure cell %s drifted:\n got: %+v\nwant: %+v",
					want.Failure[i].Label, got.Failure[i], want.Failure[i])
			}
		}
	}
	if len(got.Outage) != len(want.Outage) {
		t.Errorf("outage ablation: %d cells, golden has %d", len(got.Outage), len(want.Outage))
	} else {
		for i := range want.Outage {
			if got.Outage[i] != want.Outage[i] {
				t.Errorf("outage cell %s drifted:\n got: %+v\nwant: %+v",
					want.Outage[i].Label, got.Outage[i], want.Outage[i])
			}
		}
	}
}

// eagerSolverMontage holds the montage grid makespans computed by the
// eager flow solver that the coalescing solver replaced. They are frozen
// here rather than in a golden file, so -update-golden cannot move them.
var eagerSolverMontage = []struct {
	label    string
	makespan float64
}{
	{"local/1", 3901.7727017801103},
	{"s3/1", 4299.047452235267},
	{"s3/2", 2881.4458995315463},
	{"s3/4", 2147.15697886644},
	{"s3/8", 1763.0329264822885},
	{"nfs/1", 3950.492774876667},
	{"nfs/2", 2277.8125743098535},
	{"nfs/4", 1674.1595883406192},
	{"nfs/8", 2211.2226883910234},
	{"gluster-nufa/2", 2220.1416773591186},
	{"gluster-nufa/4", 1371.400128764512},
	{"gluster-nufa/8", 955.0323153987825},
	{"gluster-dist/2", 2220.0444604763234},
	{"gluster-dist/4", 1365.2824520358809},
	{"gluster-dist/8", 949.9192859997063},
	{"pvfs/2", 3193.0869295883776},
	{"pvfs/4", 2161.3758495063194},
	{"pvfs/8", 1645.9261063178055},
}

// TestGoldenV2PaperNumbers keeps the name it had while the coalescing
// solver ran as version 2 beside the eager one. It runs the montage grid
// through Sweep, not Grid, and checks two things. The rows equal the
// golden file's exactly. And every makespan stays within 1% of the eager
// solver's, which catches a solver change large enough to alter the
// paper's conclusions even while golden.json is being regenerated.
func TestGoldenV2PaperNumbers(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale grid")
	}
	cfgs := GridConfigs("montage")
	results, err := Sweep(cfgs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]goldenCell, len(results))
	for i, r := range results {
		got[i] = goldenCell{
			Label:      fmt.Sprintf("%s/%d", cfgs[i].Storage, cfgs[i].Workers),
			Makespan:   r.Makespan,
			CostHour:   r.CostHour.Total(),
			CostSecond: r.CostSecond.Total(),
		}
	}
	if len(got) != len(eagerSolverMontage) {
		t.Fatalf("montage grid has %d cells, eager reference %d", len(got), len(eagerSolverMontage))
	}
	for i, ref := range eagerSolverMontage {
		if got[i].Label != ref.label {
			t.Fatalf("cell %d is %s, eager reference has %s", i, got[i].Label, ref.label)
		}
		if diff := got[i].Makespan - ref.makespan; diff > 0.01*ref.makespan || diff < -0.01*ref.makespan {
			t.Errorf("cell %s: makespan %.3f diverges from the eager solver's %.3f beyond 1%%",
				ref.label, got[i].Makespan, ref.makespan)
		}
	}
	if *updateGolden {
		// TestGoldenPaperNumbers is rewriting the file.
		return
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want goldenData
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	compareCells(t, "montage grid (Sweep)", got, want.MontageGrid)
}

func at(rows []string, i int) string {
	if i < len(rows) {
		return rows[i]
	}
	return "<missing>"
}

func compareCells(t *testing.T, what string, got, want []goldenCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d cells, golden has %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s cell %s drifted:\n got: %+v\nwant: %+v", what, want[i].Label, got[i], want[i])
		}
	}
}

// TestGoldenSweepDeterminism asserts the sweep engine's core promise:
// the same matrix at -parallel 1 and -parallel 8 yields byte-identical
// results. Fresh caches on both sides so every cell actually runs twice.
func TestGoldenSweepDeterminism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale grid")
	}
	// The subtest keeps the name it had while an eager solver ran beside
	// the coalescing one (flow-v1 and flow-v2), so the test name stays stable.
	t.Run("flow-v2", func(t *testing.T) {
		cfgs := GridConfigs("epigenome")
		run := func(parallel int) []byte {
			results, err := Sweep(cfgs, SweepOptions{Parallel: parallel, NoMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]ResultJSON, len(results))
			for i, r := range results {
				rows[i] = r.JSONRow()
			}
			data, err := json.Marshal(rows)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		serial := run(1)
		concurrent := run(8)
		if !bytes.Equal(serial, concurrent) {
			t.Errorf("epigenome grid differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", serial, concurrent)
		}
	})
}

// TestGoldenMultiSeedDeterminism extends the determinism bar to
// replicated sweeps: per-cell seed derivation and aggregation must not
// depend on scheduling either.
func TestGoldenMultiSeedDeterminism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	cfgs := []RunConfig{
		{App: "broadband", Storage: "gluster-nufa", Workers: 4},
		{App: "epigenome", Storage: "nfs", Workers: 2},
	}
	run := func(parallel int) []byte {
		reps, err := SweepSeeds(cfgs, SweepOptions{Parallel: parallel, Seeds: 3, NoMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]ReplicatedJSON, len(reps))
		for i, r := range reps {
			rows[i] = r.JSONRow()
		}
		data, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := run(1)
	concurrent := run(8)
	if !bytes.Equal(serial, concurrent) {
		t.Errorf("multi-seed sweep differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", serial, concurrent)
	}
	// Replicate 0 must reproduce the paper's single-seed numbers.
	reps, err := SweepSeeds(cfgs, SweepOptions{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		paper, err := RunCached(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs[0].Makespan != paper.Makespan {
			t.Errorf("%s: replicate 0 makespan %.6f != single-seed %.6f",
				cfgs[i].Storage, rep.Runs[0].Makespan, paper.Makespan)
		}
		if rep.Makespan.N != 3 || rep.Makespan.Min > rep.Makespan.Mean || rep.Makespan.Mean > rep.Makespan.Max {
			t.Errorf("%s: inconsistent summary %+v", cfgs[i].Storage, rep.Makespan)
		}
		// Replicates vary task-runtime jitter, so the spread is real.
		if rep.Makespan.Max <= rep.Makespan.Min {
			t.Errorf("%s: replicates produced zero makespan spread: %+v", cfgs[i].Storage, rep.Makespan)
		}
	}
}

// TestGoldenStudies pins the bytes of the three paired-baseline studies:
// the scaled-down render of each (two apps x two storages, two seeds so
// the ± bands and paired-delta whiskers render) and the AblationSweep
// labels of the paper-scale failures, outages and scale ablations. The
// renders exercise every study option that reaches a cell (seeds,
// retries, durations, checkpoint interval, an unsorted ladder with a
// duplicate), so a refactor of the study code that changes a matrix, a
// pairing, a number format or a label fails here.
//
// Regenerate deliberately with:
//
//	go test ./internal/harness -run TestGoldenStudies -update-golden
func TestGoldenStudies(t *testing.T) {
	t.Parallel()
	matrix := StudyMatrix{
		Apps:     []string{"montage", "broadband"},
		Storages: []string{"gluster-nufa", "s3"},
		Build:    buildSmallApp,
		Sweep:    SweepOptions{Seeds: 2},
	}
	var b bytes.Buffer
	section := func(name, body string) {
		fmt.Fprintf(&b, "=== %s ===\n%s", name, body)
	}
	_, out, err := RunStudy(FailureStudyOptions{
		Rates: []float64{0.3, 0.1, 0.3}, MaxRetries: 5, FailureSeed: 77, Workers: 2,
	}, matrix)
	if err != nil {
		t.Fatal(err)
	}
	section("failures", out)
	_, out, err = RunStudy(OutageStudyOptions{
		Rates: []float64{20}, Duration: 60, CheckpointInterval: 15, OutageSeed: 88, Workers: 2,
	}, matrix)
	if err != nil {
		t.Fatal(err)
	}
	section("outages", out)
	_, out, err = RunStudy(ScaleStudyOptions{Sizes: []int{4, 2, 4}}, matrix)
	if err != nil {
		t.Fatal(err)
	}
	section("scale", out)
	if !testing.Short() {
		for _, name := range []string{"failures", "outages", "scale"} {
			results, _, err := Ablation(name)
			if err != nil {
				t.Fatal(err)
			}
			var labels strings.Builder
			for _, r := range results {
				labels.WriteString(r.Label)
				labels.WriteByte('\n')
			}
			section("ablation labels: "+name, labels.String())
		}
	}
	got := b.Bytes()
	path := filepath.Join("testdata", "studies.golden")
	if *updateGolden {
		if testing.Short() {
			t.Fatal("rewriting studies.golden needs the paper-scale ablations; drop -short")
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden studies (run with -update-golden to create): %v", err)
	}
	if testing.Short() {
		// The ablation-label sections follow the renders; -short checks
		// the renders alone.
		if i := bytes.Index(want, []byte("=== ablation labels: ")); i >= 0 {
			want = want[:i]
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("study output drifted from %s:\n%s", path, firstLineDiff(string(want), string(got)))
	}
}

// firstLineDiff reports the first line where two texts diverge.
func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, at(gl, i), at(wl, i))
		}
	}
	return "texts equal"
}
