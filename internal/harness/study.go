package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/report"
	"ec2wfsim/internal/sweep"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// The failure, outage and scale studies share the paper's method: run
// every application on every studied storage system across a ladder of
// study arms (failure rates, outage rates with and without
// checkpointing, cluster sizes) and compare each cell with the first arm
// of its (application, storage) block — the failure-free, outage-free
// or smallest-cluster baseline — at the same seeds, so the reported
// overheads are paired differences, not two independent measurements.
// Each study only declares its arms and its table and chart columns;
// RunStudy builds the matrix, sweeps it as one batch (parallel across
// apps, storages, arms and seeds, and bit-identical at any
// parallelism), pairs the cells and renders them.

// StudyOptions configures one study: FailureStudyOptions,
// OutageStudyOptions or ScaleStudyOptions, whose zero values run the
// canonical studies.
type StudyOptions interface {
	study() study
}

// StudyMatrix selects where a study runs. The zero value runs every
// paper application on the study's own storage systems, once.
type StudyMatrix struct {
	// Apps and Storages override the study matrix.
	Apps     []string
	Storages []string
	// Build, if set, supplies the workflow per application — tests use it
	// to run scaled-down instances. Each cell gets its own instance.
	Build func(app string) (*workflow.Workflow, error)
	// Sweep carries parallelism, seeds and progress through to the sweep
	// engine; Seeds > 1 replicates every cell and puts ±stddev error
	// bars on the rendered figures.
	Sweep SweepOptions
}

// RunStudy runs a study and renders it: a table of every cell against
// its block's baseline, plus the study's per-application charts.
func RunStudy(o StudyOptions, m StudyMatrix) ([]StudyCell, string, error) {
	return o.study().run(m)
}

// StudyCell is one aggregated (application, storage, arm) cell of a
// study, paired with the first arm of its (application, storage) block.
type StudyCell struct {
	Config   RunConfig  // the cell's configuration, arm fields included
	Rep      Replicated // aggregate over Sweep.Seeds replicates
	Baseline Replicated // the block's first-arm aggregate
}

// IsBaseline reports whether the cell is its block's baseline arm.
func (c StudyCell) IsBaseline() bool { return c.Config == c.Baseline.Config }

// MakespanInflation is the relative makespan increase over the baseline
// (0.25 = 25% slower).
func (c StudyCell) MakespanInflation() float64 {
	if c.Baseline.Makespan.Mean <= 0 {
		return 0
	}
	return c.Rep.Makespan.Mean/c.Baseline.Makespan.Mean - 1
}

// MakespanDelta summarizes the per-replicate paired differences between
// this cell and its baseline. Replicate j of both cells shares its
// jitter seeds (CellSeed excludes the failure, outage and checkpoint
// fields), so pairing cancels the provisioning spread: the stddev here
// is the uncertainty of the overhead itself, not the raw run-to-run
// spread.
func (c StudyCell) MakespanDelta() sweep.Summary {
	n := min(len(c.Rep.Runs), len(c.Baseline.Runs))
	deltas := make([]float64, n)
	for j := 0; j < n; j++ {
		deltas[j] = c.Rep.Runs[j].Makespan - c.Baseline.Runs[j].Makespan
	}
	return sweep.Summarize(deltas)
}

// CostOverhead is the relative per-second-billing cost increase over
// the baseline. Per-second billing is the sensitive metric: per-hour
// charges round occupancy up, absorbing retry inflation until it
// crosses an hour boundary (visible in the failure study's table, where
// the per-hour column barely moves).
func (c StudyCell) CostOverhead() float64 {
	if c.Baseline.CostSecond.Mean <= 0 {
		return 0
	}
	return c.Rep.CostSecond.Mean/c.Baseline.CostSecond.Mean - 1
}

// Speedup is the makespan ratio over the baseline (2 = twice as fast as
// the baseline cluster).
func (c StudyCell) Speedup() float64 {
	if c.Rep.Makespan.Mean <= 0 {
		return 0
	}
	return c.Baseline.Makespan.Mean / c.Rep.Makespan.Mean
}

// Efficiency is Speedup divided by the cluster-size ratio over the
// baseline (1 = perfect linear scaling from the baseline size).
func (c StudyCell) Efficiency() float64 {
	base := c.Baseline.Config.Workers
	if c.Config.Workers <= 0 || base <= 0 {
		return 0
	}
	return c.Speedup() / (float64(c.Config.Workers) / float64(base))
}

// CostRatio is the per-second-billing cost ratio over the baseline:
// > 1 means the cell finished the workflow at a higher total cost.
func (c StudyCell) CostRatio() float64 {
	if c.Baseline.CostSecond.Mean <= 0 {
		return 0
	}
	return c.Rep.CostSecond.Mean / c.Baseline.CostSecond.Mean
}

// The failure-sensitivity study quantifies what the paper's
// single-measurement, failure-free runs hide: real EC2 campaigns see
// transient task failures (spot hiccups, OOM kills, flaky mounts), and
// their cost depends on the storage system because every retry re-stages
// its inputs. The study's arms are a ladder of injected failure rates.

// FailureRates is the canonical rate ladder for the study, rate 0 (the
// paper's setting) leading as the baseline.
func FailureRates() []float64 { return []float64{0, 0.05, 0.1, 0.2, 0.4} }

// FailureStudyStorages lists the storage systems the study crosses with
// each application: the sync-export NFS worst case, the paper's GlusterFS
// NUFA workhorse, PVFS, and S3 (whose client cache makes retries cheap).
func FailureStudyStorages() []string {
	return []string{"nfs-sync", "gluster-nufa", "pvfs", "s3"}
}

// DefaultFailureStudyWorkers is the cluster size the study runs at — the
// paper's mid-scale 4-node configuration.
const DefaultFailureStudyWorkers = 4

// FailureStudyOptions configures a failure-sensitivity study: a table
// reporting makespan inflation, retry counts and cost overhead versus
// the failure-free baseline, plus one per-application delta chart. The
// zero value runs the canonical study: FailureStudyStorages at
// FailureRates with 4 workers.
type FailureStudyOptions struct {
	// Rates overrides the failure-rate ladder; a 0 baseline is prepended
	// when missing, and rates are deduplicated and sorted.
	Rates []float64
	// MaxRetries bounds failed attempts per task (0 = DAGMan's default).
	MaxRetries int
	// FailureSeed drives the injection RNG of every failing cell
	// (0 = the fixed default). The rate-0 baselines ignore it.
	FailureSeed uint64
	// Workers overrides the cluster size (0 = DefaultFailureStudyWorkers).
	Workers int
}

func (o FailureStudyOptions) study() study {
	workers := positiveOr(o.Workers, DefaultFailureStudyWorkers)
	var arms []RunConfig
	for _, rate := range normalizeLadder(o.Rates, FailureRates(), true) {
		arm := RunConfig{Workers: workers, FailureRate: rate, MaxRetries: o.MaxRetries}
		if rate > 0 {
			arm.FailureSeed = o.FailureSeed
		}
		arms = append(arms, arm)
	}
	return study{
		title:    "Failure-sensitivity study",
		settings: fmt.Sprintf("%d workers, per-attempt failure rates", workers),
		storages: FailureStudyStorages(),
		arms:     arms,
		armLabel: func(cfg RunConfig) string { return fmt.Sprintf("r=%g", cfg.FailureRate) },
		columns: []studyColumn{
			{"Rate", func(c StudyCell) string { return fmt.Sprintf("%g", c.Config.FailureRate) }},
			makespanColumn,
			inflationColumn,
			{"Failures", func(c StudyCell) string { return fmtPM(c.Rep.Failures, 1) }},
			{"Retries", func(c StudyCell) string { return fmtPM(c.Rep.Retries, 1) }},
			costHourColumn,
			costSecondColumn,
			overheadColumn,
		},
		charts: []studyChart{
			deltaChart("failure-free", func(c StudyCell) bool { return c.Config.FailureRate > 0 }),
		},
	}
}

// The outage-ablation study quantifies the failure regime the
// i.i.d.-failure study cannot: real EC2 campaigns lose whole nodes at
// once (spot reclamation, hardware retirement), which hits data-owning
// backends very differently than independent task kills — a dead
// GlusterFS NUFA or PVFS node takes its files offline with it, while S3
// only loses a node's local cache. The study's arms are a ladder of
// outage rates, without and then with checkpoint/restart.

// OutageRates is the canonical rate ladder (expected outages per node
// per hour), rate 0 — the paper's setting — leading as the baseline.
func OutageRates() []float64 { return []float64{0, 0.5, 1, 2} }

// OutageStudyStorages lists the storage systems the study crosses with
// each application: the same four as the failure study, chosen because
// they span the data-placement spectrum outages stress (central server,
// node-local NUFA placement, striping over every node, external object
// store).
func OutageStudyStorages() []string { return FailureStudyStorages() }

// Default shape of the canonical study: the paper's mid-scale 4-node
// configuration, reboot-scale outages, and a checkpoint cadence short
// enough to matter for the long-running tasks that dominate lost work.
const (
	DefaultOutageStudyWorkers    = 4
	DefaultOutageStudyDuration   = 120.0 // mean outage seconds
	DefaultOutageStudyCheckpoint = 120.0 // checkpointed-arm interval, seconds
)

// OutageStudyOptions configures an outage-ablation study: a table
// reporting makespan inflation, outage kills, lost-work seconds,
// checkpoint overhead bytes and cost overhead versus the outage-free
// baseline, plus one per-application delta chart. The zero value runs
// the canonical study: OutageStudyStorages at OutageRates, each rate
// with and without checkpointing, at 4 workers.
type OutageStudyOptions struct {
	// Rates overrides the outage-rate ladder; a 0 baseline is prepended
	// when missing, and rates are deduplicated and sorted.
	Rates []float64
	// Duration overrides the mean outage length (0 = the study default).
	Duration float64
	// CheckpointInterval overrides the checkpointed arm's cadence
	// (0 = the study default). The no-checkpoint arm always runs at 0.
	CheckpointInterval float64
	// OutageSeed drives the outage schedule of every outage cell
	// (0 = the fixed default). The rate-0 baselines ignore it.
	OutageSeed uint64
	// Workers overrides the cluster size (0 = DefaultOutageStudyWorkers).
	Workers int
}

func (o OutageStudyOptions) study() study {
	workers := positiveOr(o.Workers, DefaultOutageStudyWorkers)
	duration := positiveOr(o.Duration, DefaultOutageStudyDuration)
	interval := positiveOr(o.CheckpointInterval, DefaultOutageStudyCheckpoint)
	// Per (app, storage): the no-checkpoint arm across the rate ladder,
	// then the checkpointed arm. The block's first cell (rate 0, no
	// checkpoint) is the shared baseline, so checkpoint overhead at rate
	// 0 is visible as its own row.
	rates := normalizeLadder(o.Rates, OutageRates(), true)
	var arms []RunConfig
	for _, ckpt := range []float64{0, interval} {
		for _, rate := range rates {
			arm := RunConfig{Workers: workers, OutageRate: rate, CheckpointInterval: ckpt}
			if rate > 0 {
				arm.OutageDuration = duration
				arm.OutageSeed = o.OutageSeed
			}
			arms = append(arms, arm)
		}
	}
	return study{
		title: "Outage-ablation study",
		settings: fmt.Sprintf("%d workers, outages/node-hour, mean outage %s, checkpoint interval %s",
			workers, units.Duration(duration), units.Duration(interval)),
		storages: OutageStudyStorages(),
		arms:     arms,
		armLabel: func(cfg RunConfig) string {
			label := fmt.Sprintf("r=%g", cfg.OutageRate)
			if cfg.CheckpointInterval > 0 {
				label += " +ckpt"
			}
			return label
		},
		columns: []studyColumn{
			{"Ckpt", func(c StudyCell) string {
				if c.Config.CheckpointInterval > 0 {
					return "on"
				}
				return "off"
			}},
			{"Rate", func(c StudyCell) string { return fmt.Sprintf("%g", c.Config.OutageRate) }},
			makespanColumn,
			inflationColumn,
			{"Kills", func(c StudyCell) string { return fmtPM(c.Rep.OutageKills, 1) }},
			{"Lost work (s)", func(c StudyCell) string { return fmtPM(c.Rep.LostWork, 0) }},
			{"Ckpt bytes", func(c StudyCell) string { return units.Bytes(c.Rep.CheckpointBytes.Mean) }},
			costSecondColumn,
			overheadColumn,
		},
		charts: []studyChart{
			deltaChart("outage-free", func(c StudyCell) bool { return c.Config.OutageRate > 0 }),
		},
	}
}

// The large-matrix scale study extends the paper's 1-8 node sweep to the
// cluster sizes the paper never ran: it crosses every application and the
// studied storage systems with {8, 16, 32} workers and reports runtime
// scaling and the cost of the extra nodes. This is the ROADMAP's open
// "larger matrices" item, and it is also the workload that stresses the
// flow solver hardest — at 32 nodes a single PVFS read fans out over 32
// disks, which is exactly the regime the incremental solver and batched
// fan-outs were built for. The same matrix is expressible
// through the public API as ec2wfsim.Sweep with VaryWorkers(8, 16, 32).

// ScaleSizes is the canonical cluster-size ladder, the paper's largest
// configuration (8 nodes) leading as the baseline.
func ScaleSizes() []int { return []int{8, 16, 32} }

// ScaleStudyStorages lists the storage systems the study crosses with
// each application: the central NFS server (whose incast collapse is the
// scaling question), the paper's GlusterFS NUFA workhorse, PVFS (fan-out
// grows with the cluster) and S3 (external service, the null hypothesis).
func ScaleStudyStorages() []string {
	return []string{"nfs", "gluster-nufa", "pvfs", "s3"}
}

// ScaleStudyOptions configures a scale study: a table of makespan,
// speedup, parallel efficiency and cost versus the smallest-size
// baseline, plus per-application runtime and cost charts. The zero
// value runs the canonical study: ScaleStudyStorages at ScaleSizes.
type ScaleStudyOptions struct {
	// Sizes overrides the cluster-size ladder; sizes are deduplicated
	// and sorted, and the smallest size is the speedup baseline.
	Sizes []int
}

func (o ScaleStudyOptions) study() study {
	sizes := normalizeLadder(o.Sizes, ScaleSizes(), false)
	arms := make([]RunConfig, len(sizes))
	for i, n := range sizes {
		arms[i] = RunConfig{Workers: n}
	}
	return study{
		title:    "Scale study: cluster sizes beyond the paper's 8 nodes",
		settings: fmt.Sprintf("baseline %d nodes", sizes[0]),
		storages: ScaleStudyStorages(),
		arms:     arms,
		armLabel: func(cfg RunConfig) string { return fmt.Sprintf("n=%d", cfg.Workers) },
		columns: []studyColumn{
			{"Nodes", func(c StudyCell) string { return fmt.Sprintf("%d", c.Config.Workers) }},
			makespanColumn,
			pairedColumn("Speedup", "baseline", func(c StudyCell) string { return fmt.Sprintf("%.2fx", c.Speedup()) }),
			pairedColumn("Efficiency", "", func(c StudyCell) string { return fmt.Sprintf("%.0f%%", c.Efficiency()*100) }),
			costHourColumn,
			costSecondColumn,
			pairedColumn("Cost ratio", "", func(c StudyCell) string { return fmt.Sprintf("%.2fx", c.CostRatio()) }),
		},
		charts: []studyChart{
			{"runtime vs cluster size (s)", "s", nil, func(c StudyCell) sweep.Summary { return c.Rep.Makespan }},
			{"per-second-billing cost vs cluster size (USD)", "USD", nil, func(c StudyCell) sweep.Summary { return c.Rep.CostSecond }},
		},
	}
}

// study declares one paired-baseline study.
type study struct {
	// title and settings head the table as "title (settings, N seed(s))".
	title    string
	settings string
	storages []string // the default matrix columns
	// arms are the cell variants of every (app, storage) block, the
	// baseline first; the runner fills in App, Storage and Workflow.
	arms []RunConfig
	// armLabel names a cell's arm ("r=0.1", "r=1 +ckpt", "n=16") in
	// chart bars and ablation labels.
	armLabel func(RunConfig) string
	// columns follow Application and Storage in the study table.
	columns []studyColumn
	// charts are drawn once per application, over that app's cells.
	charts []studyChart
}

// studyColumn is one study-specific column of the study table.
type studyColumn struct {
	header string
	value  func(StudyCell) string
}

// studyChart is one per-application bar chart, a bar per included cell.
type studyChart struct {
	title   string // follows "<Application>: "
	unit    string
	include func(StudyCell) bool // nil draws every cell
	value   func(StudyCell) sweep.Summary
}

// Columns more than one study draws (deltaChart below is the shared chart).
var (
	makespanColumn   = studyColumn{"Makespan (s)", func(c StudyCell) string { return fmtPM(c.Rep.Makespan, 0) }}
	costHourColumn   = studyColumn{"Cost/hr", func(c StudyCell) string { return units.USD(c.Rep.CostHour.Mean) }}
	costSecondColumn = studyColumn{"Cost/s", func(c StudyCell) string { return units.USD(c.Rep.CostSecond.Mean) }}
	inflationColumn  = pairedColumn("Inflation", "baseline", func(c StudyCell) string {
		return fmtPercent(c.MakespanInflation())
	})
	overheadColumn = pairedColumn("Overhead/s", "", func(c StudyCell) string {
		return fmtPercent(c.CostOverhead())
	})
)

// pairedColumn renders a metric paired against the baseline, writing
// baselineText in the baseline row, which has nothing to pair with.
func pairedColumn(header, baselineText string, value func(StudyCell) string) studyColumn {
	return studyColumn{header, func(c StudyCell) string {
		if c.IsBaseline() {
			return baselineText
		}
		return value(c)
	}}
}

// deltaChart draws the paired makespan overhead of the included cells
// over their baseline.
func deltaChart(baseline string, include func(StudyCell) bool) studyChart {
	return studyChart{
		title:   "makespan overhead vs " + baseline + " baseline (s)",
		unit:    "s",
		include: include,
		value:   StudyCell.MakespanDelta,
	}
}

// run crosses apps x storages x arms, sweeps every cell as one batch,
// pairs each cell with its block's first arm and renders the study.
func (s study) run(m StudyMatrix) ([]StudyCell, string, error) {
	if len(m.Apps) == 0 {
		m.Apps = apps.Names()
	}
	if len(m.Storages) == 0 {
		m.Storages = s.storages
	}
	var cfgs []RunConfig
	for _, app := range m.Apps {
		for _, sys := range m.Storages {
			for _, cfg := range s.arms {
				cfg.App, cfg.Storage = app, sys
				if m.Build != nil {
					w, err := m.Build(app)
					if err != nil {
						return nil, "", err
					}
					cfg.Workflow = w
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	reps, err := SweepSeeds(cfgs, m.Sweep)
	if err != nil {
		return nil, "", err
	}
	block := len(s.arms)
	cells := make([]StudyCell, len(reps))
	for i, rep := range reps {
		cells[i] = StudyCell{Config: cfgs[i], Rep: rep, Baseline: reps[i-i%block]}
	}
	return cells, s.render(m, cells), nil
}

// render draws the study table and the per-application charts, with
// ±stddev bands and whiskers when Sweep.Seeds > 1.
func (s study) render(m StudyMatrix, cells []StudyCell) string {
	t := &report.Table{
		Title:  fmt.Sprintf("%s (%s, %d seed(s))", s.title, s.settings, max(m.Sweep.Seeds, 1)),
		Header: []string{"Application", "Storage"},
	}
	for _, col := range s.columns {
		t.Header = append(t.Header, col.header)
	}
	for _, c := range cells {
		row := []string{c.Config.App, c.Config.Storage}
		for _, col := range s.columns {
			row = append(row, col.value(c))
		}
		t.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	for _, app := range m.Apps {
		for _, ch := range s.charts {
			chart := &report.BarChart{Title: title(app) + ": " + ch.title, Unit: ch.unit}
			for _, c := range cells {
				if c.Config.App != app || (ch.include != nil && !ch.include(c)) {
					continue
				}
				v := ch.value(c)
				chart.AddErr(c.Config.Storage+" "+s.armLabel(c.Config), v.Mean, v.Stddev)
			}
			b.WriteByte('\n')
			b.WriteString(chart.String())
		}
	}
	return b.String()
}

// normalizeLadder returns a study's arm ladder as a fresh sorted,
// deduplicated slice, never writing into xs: the positive entries of xs
// (def when xs is empty), led by 0 when anchorZero makes the zero
// setting the baseline. A ladder left empty falls back to def.
func normalizeLadder[T int | float64](xs, def []T, anchorZero bool) []T {
	if len(xs) == 0 {
		xs = def
	}
	var out []T
	if anchorZero {
		out = append(out, 0)
	}
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		out = append(out, def...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// positiveOr returns v, or def when v is not positive.
func positiveOr[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// fmtPM formats a summary as "mean ± stddev", dropping the band when
// there is no spread to report.
func fmtPM(s sweep.Summary, prec int) string {
	if s.N > 1 && s.Stddev > 0 {
		return fmt.Sprintf("%.*f ± %.*f", prec, s.Mean, prec, s.Stddev)
	}
	return fmt.Sprintf("%.*f", prec, s.Mean)
}

// fmtPercent formats a signed relative change.
func fmtPercent(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", v*100)
}
