package harness

import (
	"math"
	"strings"
	"testing"

	"ec2wfsim/internal/scenario"
)

// NaN and ±Inf rates, durations and intervals must be refused by name both
// where a spec is validated and where every run enters the workflow
// engine: an infinite outage rate otherwise never finishes, and a NaN
// compares false against every threshold and silently disables the knob.
func TestNonFiniteRatesRejected(t *testing.T) {
	fields := []struct {
		spec, wms string // the name each layer's error must carry
		set       func(s *scenario.Spec, v float64)
	}{
		{"failure_rate", "FailureRate", func(s *scenario.Spec, v float64) { s.FailureRate = v }},
		{"outage_rate", "OutageRate", func(s *scenario.Spec, v float64) { s.OutageRate = v }},
		{"outage_duration", "OutageDuration", func(s *scenario.Spec, v float64) { s.OutageDuration = v; s.OutageRate = 1 }},
		{"checkpoint_interval", "CheckpointInterval", func(s *scenario.Spec, v float64) { s.CheckpointInterval = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := scenario.Spec{App: "epigenome", Storage: "nfs", Workers: 2}
			f.set(&s, v)
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), f.spec) {
				t.Errorf("Spec.Validate with %s=%g: err = %v, want one naming %s", f.spec, v, err, f.spec)
			}
			if _, err := Run(SpecConfig(s)); err == nil || !strings.Contains(err.Error(), f.wms) {
				t.Errorf("Run with %s=%g: err = %v, want one naming %s", f.wms, v, err, f.wms)
			}
		}
	}
}
