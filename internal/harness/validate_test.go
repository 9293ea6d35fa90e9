package harness

import (
	"testing"

	"ec2wfsim/internal/scenario"
)

// TestRunValidatesSpec: every cell is checked against the spec rules
// before its cluster is built, including library calls with a custom
// workflow that never pass through a spec file.
func TestRunValidatesSpec(t *testing.T) {
	t.Parallel()
	w := replayWorkflow(t)
	for _, c := range []struct {
		name string
		cfg  RunConfig
	}{
		{"negative failure rate", RunConfig{App: "montage", Storage: "nfs", Workers: 2, Workflow: w, FailureRate: -0.1}},
		{"too many workers", RunConfig{App: "montage", Storage: "nfs", Workers: scenario.MaxWorkers + 1, Workflow: w}},
	} {
		if _, err := Run(c.cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid cell", c.name)
		}
	}
}
