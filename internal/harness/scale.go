package harness

import (
	"fmt"
	"sort"
	"strings"

	"ec2wfsim/internal/report"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

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

// ScaleStudyOptions configures a scale study. The zero value runs the
// canonical study: every paper application on ScaleStudyStorages at
// ScaleSizes.
type ScaleStudyOptions struct {
	// Sizes overrides the cluster-size ladder; sizes are deduplicated
	// and sorted, and the smallest size is the speedup baseline.
	Sizes []int
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

func (o *ScaleStudyOptions) normalize() {
	sort.Ints(o.Sizes)
	dedup := o.Sizes[:0]
	for _, n := range o.Sizes {
		if n > 0 && (len(dedup) == 0 || n != dedup[len(dedup)-1]) {
			dedup = append(dedup, n)
		}
	}
	o.Sizes = dedup
	if len(o.Sizes) == 0 {
		// Also the fallback when every requested size was non-positive.
		o.Sizes = ScaleSizes()
	}
	if len(o.Apps) == 0 {
		o.Apps = []string{"montage", "epigenome", "broadband"}
	}
	if len(o.Storages) == 0 {
		o.Storages = ScaleStudyStorages()
	}
}

// ScaleCell is one aggregated (application, storage, cluster-size) cell,
// paired with the smallest-size cell for the same application and
// storage system.
type ScaleCell struct {
	Config   RunConfig  // the cell's configuration, Workers included
	Rep      Replicated // aggregate over Sweep.Seeds replicates
	Baseline Replicated // the smallest-size aggregate for the same app/storage
}

// Speedup is the makespan ratio over the smallest-size baseline (2 =
// twice as fast as the baseline cluster).
func (c ScaleCell) Speedup() float64 {
	if c.Rep.Makespan.Mean <= 0 {
		return 0
	}
	return c.Baseline.Makespan.Mean / c.Rep.Makespan.Mean
}

// Efficiency is Speedup divided by the cluster-size ratio (1 = perfect
// linear scaling from the baseline size).
func (c ScaleCell) Efficiency(baselineWorkers int) float64 {
	if c.Config.Workers <= 0 || baselineWorkers <= 0 {
		return 0
	}
	return c.Speedup() / (float64(c.Config.Workers) / float64(baselineWorkers))
}

// CostRatio is the per-second-billing cost ratio over the smallest-size
// baseline: > 1 means the larger cluster finished the workflow at a
// higher total cost.
func (c ScaleCell) CostRatio() float64 {
	if c.Baseline.CostSecond.Mean <= 0 {
		return 0
	}
	return c.Rep.CostSecond.Mean / c.Baseline.CostSecond.Mean
}

// ScaleStudy runs the large-matrix study and renders it: a table of
// makespan, speedup, parallel efficiency and cost versus the
// smallest-size baseline, plus per-application runtime and cost charts
// (±stddev whiskers when Sweep.Seeds > 1). All cells dispatch through
// the sweep engine as one batch and results are bit-identical at any
// parallelism.
func ScaleStudy(o ScaleStudyOptions) ([]ScaleCell, string, error) {
	o.normalize()
	var cfgs []RunConfig
	for _, app := range o.Apps {
		for _, sys := range o.Storages {
			for _, workers := range o.Sizes {
				cfg := RunConfig{App: app, Storage: sys, Workers: workers}
				if o.Build != nil {
					w, err := o.Build(app)
					if err != nil {
						return nil, "", err
					}
					cfg.Workflow = w
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	reps, err := SweepSeeds(cfgs, o.Sweep)
	if err != nil {
		return nil, "", err
	}
	// cfgs is blocks of len(o.Sizes) sharing (app, storage); the first
	// entry of each block is the smallest-size baseline.
	nSizes := len(o.Sizes)
	cells := make([]ScaleCell, len(reps))
	for i, rep := range reps {
		cells[i] = ScaleCell{
			Config:   cfgs[i],
			Rep:      rep,
			Baseline: reps[i-i%nSizes],
		}
	}
	return cells, renderScaleStudy(o, cells), nil
}

// renderScaleStudy renders the study table and the per-application
// runtime/cost figures.
func renderScaleStudy(o ScaleStudyOptions, cells []ScaleCell) string {
	base := o.Sizes[0]
	t := &report.Table{
		Title: fmt.Sprintf("Scale study: cluster sizes beyond the paper's 8 nodes (baseline %d nodes, %d seed(s))",
			base, seedsOf(o.Sweep)),
		Header: []string{"Application", "Storage", "Nodes", "Makespan (s)", "Speedup", "Efficiency", "Cost/hr", "Cost/s", "Cost ratio"},
	}
	for _, c := range cells {
		speedup, eff, ratio := "baseline", "", ""
		if c.Config.Workers != base {
			speedup = fmt.Sprintf("%.2fx", c.Speedup())
			eff = fmt.Sprintf("%.0f%%", c.Efficiency(base)*100)
			ratio = fmt.Sprintf("%.2fx", c.CostRatio())
		}
		t.AddRow(
			c.Config.App,
			c.Config.Storage,
			fmt.Sprintf("%d", c.Config.Workers),
			fmtPM(c.Rep.Makespan, 0),
			speedup,
			eff,
			units.USD(c.Rep.CostHour.Mean),
			units.USD(c.Rep.CostSecond.Mean),
			ratio,
		)
	}
	var b strings.Builder
	b.WriteString(t.String())
	for _, app := range o.Apps {
		runtime := &report.BarChart{
			Title: fmt.Sprintf("%s: runtime vs cluster size (s)", title(app)),
			Unit:  "s",
		}
		cost := &report.BarChart{
			Title: fmt.Sprintf("%s: per-second-billing cost vs cluster size (USD)", title(app)),
			Unit:  "USD",
		}
		for _, c := range cells {
			if c.Config.App != app {
				continue
			}
			label := fmt.Sprintf("%s n=%d", c.Config.Storage, c.Config.Workers)
			runtime.AddErr(label, c.Rep.Makespan.Mean, c.Rep.Makespan.Stddev)
			cost.AddErr(label, c.Rep.CostSecond.Mean, c.Rep.CostSecond.Stddev)
		}
		b.WriteByte('\n')
		b.WriteString(runtime.String())
		b.WriteByte('\n')
		b.WriteString(cost.String())
	}
	return b.String()
}
