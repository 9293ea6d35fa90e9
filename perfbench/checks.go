package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"ec2wfsim/internal/harness"
)

// goldenCell is one row of the harness's golden file: the paper-seed
// makespan and both cost models of one figure-grid cell.
type goldenCell struct {
	Label      string  `json:"label"`
	Makespan   float64 `json:"makespan_s"`
	CostHour   float64 `json:"cost_per_hour"`
	CostSecond float64 `json:"cost_per_second"`
}

// goldenPath is the golden file relative to the repository root.
var goldenPath = filepath.Join("internal", "harness", "testdata", "golden.json")

// loadGolden reads the figure-grid goldens, keyed "app/storage/workers".
func loadGolden(repo string) (map[string]goldenCell, error) {
	data, err := os.ReadFile(filepath.Join(repo, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("reading golden file: %w", err)
	}
	var g struct {
		Montage   []goldenCell `json:"montage_grid"`
		Epigenome []goldenCell `json:"epigenome_grid"`
		Broadband []goldenCell `json:"broadband_grid"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing golden file: %w", err)
	}
	out := make(map[string]goldenCell)
	for app, cells := range map[string][]goldenCell{"montage": g.Montage, "epigenome": g.Epigenome, "broadband": g.Broadband} {
		for _, c := range cells {
			out[app+"/"+c.Label] = c
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("golden file %s holds no grid cells", goldenPath)
	}
	return out, nil
}

func cellLabel(cfg harness.RunConfig) string {
	return fmt.Sprintf("%s/%s/%d", cfg.App, cfg.Storage, cfg.Workers)
}

// checkGolden compares a paper-seed result with its golden row, bit for
// bit. Cells the golden file does not pin pass.
func checkGolden(golden map[string]goldenCell, r *harness.RunResult) error {
	want, ok := golden[cellLabel(r.Config)]
	if !ok {
		return nil
	}
	got := goldenCell{
		Label:      want.Label,
		Makespan:   r.Makespan,
		CostHour:   r.CostHour.Total(),
		CostSecond: r.CostSecond.Total(),
	}
	if got != want {
		return fmt.Errorf("%s drifted from golden: got %+v, want %+v", cellLabel(r.Config), got, want)
	}
	return nil
}

// checkComplete fails a run that did not finish every task of its DAG.
func checkComplete(r *harness.RunResult, tasks int) error {
	if n := r.Completed(); n != tasks {
		return fmt.Errorf("%s completed %d of %d tasks", cellLabel(r.Config), n, tasks)
	}
	return nil
}

// fingerprint digests results' export rows in order; two passes over
// the same inputs must produce the same digest.
func fingerprint(rs []*harness.RunResult) string {
	rows := make([]harness.ResultJSON, len(rs))
	for i, r := range rs {
		rows[i] = r.JSONRow()
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// paperValue is a makespan the paper reports for one cell.
type paperValue struct {
	cfg      harness.RunConfig
	makespan float64
}

// paperValues are the two published makespans the repository holds:
// Broadband on NFS at 4 nodes (Fig. 4), and the same with the
// m2.4xlarge NFS server (Sec. V.C).
var paperValues = []paperValue{
	{harness.RunConfig{App: "broadband", Storage: "nfs", Workers: 4}, 5363},
	{harness.RunConfig{App: "broadband", Storage: "nfs-m2.4xlarge", Workers: 4}, 4368},
}

// paperTolerancePct bounds paper_err_pct; beyond it the simulator no
// longer reproduces the paper and the run is not correct.
const paperTolerancePct = 5.0

// paperErrPct is the larger relative makespan error, in percent, of
// results against the paper values (results in paperValues order).
func paperErrPct(results []*harness.RunResult) float64 {
	worst := 0.0
	for i, pv := range paperValues {
		worst = math.Max(worst, 100*math.Abs(results[i].Makespan-pv.makespan)/pv.makespan)
	}
	return worst
}
