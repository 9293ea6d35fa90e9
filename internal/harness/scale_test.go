package harness

import (
	"slices"
	"strings"
	"testing"
)

// TestScaleStudySmall runs a scaled-down scale study end to end: matrix
// construction, baseline pairing, speedup/efficiency math and the
// rendered table and figures.
func TestScaleStudySmall(t *testing.T) {
	t.Parallel()
	cells, out, err := RunStudy(ScaleStudyOptions{Sizes: []int{2, 4, 8}}, StudyMatrix{
		Apps:     []string{"montage"},
		Storages: []string{"gluster-nufa", "pvfs"},
		Build:    buildSmallApp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 * 2 * 3; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Rep.Makespan.Mean <= 0 {
			t.Errorf("cell %d (%s n=%d): non-positive makespan", i, c.Config.Storage, c.Config.Workers)
		}
		base := cells[i-i%3]
		if c.Baseline.Makespan.Mean != base.Rep.Makespan.Mean {
			t.Errorf("cell %d paired against the wrong baseline", i)
		}
		if c.Config.Workers == 2 && c.Speedup() != 1 {
			t.Errorf("baseline cell %d: speedup %g, want 1", i, c.Speedup())
		}
		// Parallel efficiency can exceed 1 only through measurement
		// artifacts the small instances don't have; a 4x larger cluster
		// must not be reported as super-linear.
		if eff := c.Efficiency(); eff < 0 || eff > 1.5 {
			t.Errorf("cell %d: implausible efficiency %g", i, eff)
		}
	}
	for _, want := range []string{"Scale study", "Speedup", "Efficiency", "runtime vs cluster size", "cost vs cluster size", "baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered study missing %q", want)
		}
	}
}

// TestScaleStudyDeterministicAcrossParallelism pins the study's
// bit-identical-at-any-parallelism contract — the same guarantee the
// golden sweeps enforce, for the new matrix.
func TestScaleStudyDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	run := func(parallel int) string {
		_, out, err := RunStudy(ScaleStudyOptions{Sizes: []int{2, 4}}, StudyMatrix{
			Apps:     []string{"montage"},
			Storages: []string{"gluster-nufa"},
			Build:    buildSmallApp,
			Sweep:    SweepOptions{Parallel: parallel, NoMemo: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("scale study diverged between -parallel 1 and 8:\n%s\nvs\n%s", a, b)
	}
}

// TestScaleAblationRegistered wires the study into the ablation table.
func TestScaleAblationRegistered(t *testing.T) {
	t.Parallel()
	found := false
	for _, name := range AblationNames() {
		if name == "scale" {
			found = true
		}
	}
	if !found {
		t.Fatal("ablation list missing \"scale\"")
	}
}

// TestScaleStudyLeavesCallerSizes pins that the study normalizes a copy
// of its ladder: the caller's Sizes slice keeps its order and its
// duplicate, while the study still runs the sorted, deduplicated ladder.
func TestScaleStudyLeavesCallerSizes(t *testing.T) {
	t.Parallel()
	sizes := []int{8, 2, 2, 4}
	cells, _, err := RunStudy(ScaleStudyOptions{Sizes: sizes}, StudyMatrix{
		Apps:     []string{"epigenome"},
		Storages: []string{"s3"},
		Build:    buildSmallApp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{8, 2, 2, 4}; !slices.Equal(sizes, want) {
		t.Errorf("ScaleStudy rewrote the caller's Sizes to %v, want %v", sizes, want)
	}
	var ran []int
	for _, c := range cells {
		ran = append(ran, c.Config.Workers)
	}
	if want := []int{2, 4, 8}; !slices.Equal(ran, want) {
		t.Errorf("study ran sizes %v, want %v", ran, want)
	}
}
