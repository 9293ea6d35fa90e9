// Package cross builds paired cross-scenario reports from two recorded
// event logs: per-task and per-transfer timing deltas, rendered as
// aligned tables and delta charts, plus a drilldown to the exact
// transfer where the two runs first diverged. Because recorded logs are
// deterministic, every comparison is a pure function of the two byte
// streams — the same pair of logs yields byte-identical reports at any
// sweep parallelism.
//
// The typical pairings: two storage backends on the same workflow (the
// paper's core question — *why* is PVFS faster than NFS here, not just
// *that* it is), the same scenario recorded before and after a change
// to the simulator (where the first divergent transfer localizes a
// numeric difference), or a baseline against a failure/outage ablation.
package cross

import (
	"fmt"
	"sort"

	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/report"
)

// Options configure a comparison.
type Options struct {
	// ALabel and BLabel name the two sides in rendered output; empty
	// defaults to "A" and "B".
	ALabel, BLabel string
	// Tol is the timing tolerance (seconds) below which a start or
	// duration difference does not count as a divergence. Zero — the
	// default — demands exact equality, the right bar for comparing
	// runs that claim bit-identity (e.g. a behaviour-neutral refactor).
	Tol float64
}

// TaskDelta pairs one task's timing across the two runs. Start is the
// task's first pickup (its first task-start event); Dur is the
// successful attempt's start-to-publish duration (the task-finish
// event's dur field).
type TaskDelta struct {
	Task           string
	AStart, BStart float64
	ADur, BDur     float64
}

// DStart and DDur are the B-minus-A deltas.
func (d TaskDelta) DStart() float64 { return d.BStart - d.AStart }
func (d TaskDelta) DDur() float64   { return d.BDur - d.ADur }

// TransferDelta pairs one transfer across the two runs. Transfers are
// matched by (task, phase, file, occurrence): occurrence numbers
// repeated transfers of the same file by the same task from 0 in
// stream order, so a retried attempt's re-staged inputs pair with the
// other run's same repeat rather than off-by-one shifting every later
// match.
type TransferDelta struct {
	Task, Phase, File string
	Occurrence        int
	Size              float64
	AStart, BStart    float64
	ADur, BDur        float64
}

// DStart and DDur are the B-minus-A deltas.
func (d TransferDelta) DStart() float64 { return d.BStart - d.AStart }
func (d TransferDelta) DDur() float64   { return d.BDur - d.ADur }

// Key renders the match key for drilldown messages.
func (d TransferDelta) Key() string {
	if d.Occurrence == 0 {
		return fmt.Sprintf("%s %s %s", d.Task, d.Phase, d.File)
	}
	return fmt.Sprintf("%s %s %s (repeat %d)", d.Task, d.Phase, d.File, d.Occurrence)
}

// Report is one paired comparison of two recorded runs.
type Report struct {
	ALabel, BLabel   string
	AHeader, BHeader eventlog.Header
	// Tasks holds the per-task deltas for every task that finished in
	// both runs, in A start order.
	Tasks []TaskDelta
	// Transfers holds the per-transfer deltas for every matched
	// transfer, in A start order.
	Transfers []TransferDelta
	// AOnlyTasks/BOnlyTasks count tasks that finished in only one run;
	// AOnlyTransfers/BOnlyTransfers count unmatched transfers (a retry
	// in one run re-stages inputs the other run staged once).
	AOnlyTasks, BOnlyTasks         int
	AOnlyTransfers, BOnlyTransfers int
	// FirstDivergent is the first matched transfer — in A start order —
	// whose start or duration differs by more than Tol; nil when every
	// matched transfer agrees within Tol.
	FirstDivergent *TransferDelta
	Tol            float64
}

// transferKey matches transfers across runs.
type transferKey struct {
	task, phase, file string
	occurrence        int
}

// runView is one log reduced to the pieces a comparison needs.
type runView struct {
	header    eventlog.Header
	taskStart map[string]float64 // first task-start per task
	taskDur   map[string]float64 // task-finish dur per task
	taskOrder []string           // tasks in first-start order
	transfers map[transferKey]*transferTimes
	transfOrd []transferKey // matched keys in start order
}

type transferTimes struct {
	start, dur, size float64
}

// viewOf reduces a decoded stream. Transfer timing is taken from the
// drain event (which carries the duration); its start is drain minus
// dur, identical to the paired transfer-start's timestamp.
func viewOf(h eventlog.Header, events []eventlog.Event) *runView {
	v := &runView{
		header:    h,
		taskStart: make(map[string]float64),
		taskDur:   make(map[string]float64),
		transfers: make(map[transferKey]*transferTimes),
	}
	occ := make(map[transferKey]int)
	for _, e := range events {
		switch e.Kind {
		case eventlog.TaskStart:
			if _, ok := v.taskStart[e.Task]; !ok {
				v.taskStart[e.Task] = e.T
				v.taskOrder = append(v.taskOrder, e.Task)
			}
		case eventlog.TaskFinish:
			if _, ok := v.taskDur[e.Task]; !ok {
				v.taskDur[e.Task] = e.Dur
			}
		case eventlog.TransferDrain:
			base := transferKey{task: e.Task, phase: e.Phase, file: e.File}
			k := base
			k.occurrence = occ[base]
			occ[base]++
			v.transfers[k] = &transferTimes{start: e.T - e.Dur, dur: e.Dur, size: e.Size}
			v.transfOrd = append(v.transfOrd, k)
		}
	}
	return v
}

// Compare decodes two recorded logs and pairs them. Either log failing
// to decode — corruption, truncation — is an error, not a divergence.
func Compare(aData, bData []byte, opt Options) (*Report, error) {
	ah, aev, _, err := eventlog.Decode(aData)
	if err != nil {
		return nil, fmt.Errorf("cross: log A: %w", err)
	}
	bh, bev, _, err := eventlog.Decode(bData)
	if err != nil {
		return nil, fmt.Errorf("cross: log B: %w", err)
	}
	a, b := viewOf(ah, aev), viewOf(bh, bev)

	r := &Report{
		ALabel: opt.ALabel, BLabel: opt.BLabel,
		AHeader: ah, BHeader: bh,
		Tol: opt.Tol,
	}
	if r.ALabel == "" {
		r.ALabel = "A"
	}
	if r.BLabel == "" {
		r.BLabel = "B"
	}

	for _, task := range a.taskOrder {
		aDur, aOK := a.taskDur[task]
		bDur, bOK := b.taskDur[task]
		if !aOK {
			continue // started but never finished in A (shouldn't happen in complete logs)
		}
		if !bOK {
			r.AOnlyTasks++
			continue
		}
		r.Tasks = append(r.Tasks, TaskDelta{
			Task:   task,
			AStart: a.taskStart[task], BStart: b.taskStart[task],
			ADur: aDur, BDur: bDur,
		})
	}
	r.BOnlyTasks = len(b.taskDur) - len(r.Tasks)

	matchedB := make(map[transferKey]bool, len(b.transfers))
	for _, k := range a.transfOrd {
		at := a.transfers[k]
		bt, ok := b.transfers[k]
		if !ok {
			r.AOnlyTransfers++
			continue
		}
		matchedB[k] = true
		d := TransferDelta{
			Task: k.task, Phase: k.phase, File: k.file, Occurrence: k.occurrence,
			Size:   at.size,
			AStart: at.start, BStart: bt.start,
			ADur: at.dur, BDur: bt.dur,
		}
		r.Transfers = append(r.Transfers, d)
		if r.FirstDivergent == nil && (abs(d.DStart()) > opt.Tol || abs(d.DDur()) > opt.Tol) {
			dd := d
			r.FirstDivergent = &dd
		}
	}
	r.BOnlyTransfers = len(b.transfers) - len(matchedB)
	return r, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// topBy returns the indices of the n largest elements by |mag|, ties
// broken by original (A start) order so rendering is deterministic.
func topBy(count, n int, mag func(int) float64) []int {
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return abs(mag(idx[i])) > abs(mag(idx[j]))
	})
	if n > 0 && n < len(idx) {
		idx = idx[:n]
	}
	return idx
}

// TaskTable renders the n largest per-task duration deltas (0 = all).
func (r *Report) TaskTable(n int) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Per-task deltas (%s vs %s), largest |Δdur| first", r.BLabel, r.ALabel),
		Header: []string{"task", r.ALabel + " start", r.BLabel + " start", "Δstart", r.ALabel + " dur", r.BLabel + " dur", "Δdur"},
	}
	for _, i := range topBy(len(r.Tasks), n, func(i int) float64 { return r.Tasks[i].DDur() }) {
		d := r.Tasks[i]
		t.AddRow(d.Task,
			fmt.Sprintf("%.3f", d.AStart), fmt.Sprintf("%.3f", d.BStart),
			fmt.Sprintf("%+.3f", d.DStart()),
			fmt.Sprintf("%.3f", d.ADur), fmt.Sprintf("%.3f", d.BDur),
			fmt.Sprintf("%+.3f", d.DDur()))
	}
	return t
}

// TransferTable renders the n largest per-transfer duration deltas
// (0 = all).
func (r *Report) TransferTable(n int) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Per-transfer deltas (%s vs %s), largest |Δdur| first", r.BLabel, r.ALabel),
		Header: []string{"task", "phase", "file", r.ALabel + " dur", r.BLabel + " dur", "Δdur", "Δstart"},
	}
	for _, i := range topBy(len(r.Transfers), n, func(i int) float64 { return r.Transfers[i].DDur() }) {
		d := r.Transfers[i]
		file := d.File
		if d.Occurrence > 0 {
			file = fmt.Sprintf("%s#%d", d.File, d.Occurrence)
		}
		t.AddRow(d.Task, d.Phase, file,
			fmt.Sprintf("%.3f", d.ADur), fmt.Sprintf("%.3f", d.BDur),
			fmt.Sprintf("%+.3f", d.DDur()), fmt.Sprintf("%+.3f", d.DStart()))
	}
	return t
}

// DeltaChart renders the n largest per-task duration deltas as a bar
// chart (0 = all) — the visual answer to "which tasks got slower".
func (r *Report) DeltaChart(n int) *report.BarChart {
	c := &report.BarChart{
		Title: fmt.Sprintf("Task Δdur, %s minus %s", r.BLabel, r.ALabel),
		Unit:  "s",
	}
	for _, i := range topBy(len(r.Tasks), n, func(i int) float64 { return r.Tasks[i].DDur() }) {
		c.Add(r.Tasks[i].Task, r.Tasks[i].DDur())
	}
	return c
}

// Summary renders the headline comparison: match counts and the first
// divergent transfer, if any.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%d tasks and %d transfers matched", len(r.Tasks), len(r.Transfers))
	if n := r.AOnlyTasks + r.BOnlyTasks; n > 0 {
		s += fmt.Sprintf("; %d tasks unmatched (%d only in %s, %d only in %s)",
			n, r.AOnlyTasks, r.ALabel, r.BOnlyTasks, r.BLabel)
	}
	if n := r.AOnlyTransfers + r.BOnlyTransfers; n > 0 {
		s += fmt.Sprintf("; %d transfers unmatched (%d only in %s, %d only in %s)",
			n, r.AOnlyTransfers, r.ALabel, r.BOnlyTransfers, r.BLabel)
	}
	s += "\n"
	if d := r.FirstDivergent; d != nil {
		s += fmt.Sprintf("first divergent transfer (by %s start order): %s\n", r.ALabel, d.Key())
		s += fmt.Sprintf("  %s: start %.6f dur %.6f\n", r.ALabel, d.AStart, d.ADur)
		s += fmt.Sprintf("  %s: start %.6f dur %.6f (Δstart %+.6f, Δdur %+.6f)\n",
			r.BLabel, d.BStart, d.BDur, d.DStart(), d.DDur())
	} else {
		s += fmt.Sprintf("no divergent transfers (tolerance %g s)\n", r.Tol)
	}
	return s
}

// String renders the full report: summary, top task and transfer
// tables, and the delta chart.
func (r *Report) String() string {
	const top = 15
	return r.Summary() + "\n" +
		r.TaskTable(top).String() + "\n" +
		r.TransferTable(top).String() + "\n" +
		r.DeltaChart(top).String()
}
