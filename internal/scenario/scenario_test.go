package scenario

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestKeyNormalizesDefaults(t *testing.T) {
	base := &Spec{App: "montage", Storage: "nfs", Workers: 2}
	explicit := &Spec{App: "montage", Storage: "nfs", Workers: 2,
		WorkerType: "c1.xlarge", Seed: DefaultSeed}
	if Key(base) != Key(explicit) {
		t.Errorf("explicit defaults split the key:\n%q\nvs\n%q", Key(base), Key(explicit))
	}
	ignored := &Spec{App: "montage", Storage: "nfs", Workers: 2,
		MaxRetries: 5, FailureSeed: 9, OutageDuration: 60, OutageSeed: 11}
	if Key(base) != Key(ignored) {
		t.Errorf("inactive knob fields split the key:\n%q\nvs\n%q", Key(base), Key(ignored))
	}
	failing := &Spec{App: "montage", Storage: "nfs", Workers: 2, FailureRate: 0.1}
	if Key(base) == Key(failing) {
		t.Error("failure rate did not change the key")
	}
}

func TestPairKeyExcludesKnobs(t *testing.T) {
	base := &Spec{App: "montage", Storage: "nfs", Workers: 2}
	knobbed := &Spec{App: "montage", Storage: "nfs", Workers: 2,
		Seed: 7, AppSeed: 3, FailureRate: 0.1, OutageRate: 1, CheckpointInterval: 60}
	if PairKey(base) != PairKey(knobbed) {
		t.Errorf("knobs changed the pairing hash:\n%q\nvs\n%q", PairKey(base), PairKey(knobbed))
	}
	for rep := 1; rep < 4; rep++ {
		// Same pairing key but different base seeds must still derive
		// different replicate seeds.
		if ReplicateSeed(base, rep) == ReplicateSeed(knobbed, rep) {
			t.Errorf("replicate %d ignored the base seed", rep)
		}
	}
}

func TestReseedOnlyActiveStreams(t *testing.T) {
	s := &Spec{App: "montage", Storage: "nfs", Workers: 2}
	Reseed(s, 42)
	if s.Seed != 42 || s.AppSeed != 42 {
		t.Errorf("jitter seeds not reseeded: %+v", s)
	}
	if s.FailureSeed != 0 || s.OutageSeed != 0 {
		t.Errorf("inactive streams reseeded: %+v", s)
	}
	f := &Spec{App: "montage", Storage: "nfs", Workers: 2, FailureRate: 0.1, OutageRate: 1}
	Reseed(f, 42)
	if f.FailureSeed == 0 || f.OutageSeed == 0 {
		t.Errorf("active streams not reseeded: %+v", f)
	}
	if f.FailureSeed == f.OutageSeed || f.FailureSeed == 42 || f.OutageSeed == 42 {
		t.Errorf("streams not decorrelated: %+v", f)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		spec Spec
		kind string
	}{
		{Spec{App: "montag", Storage: "nfs", Workers: 2}, "application"},
		{Spec{App: "montage", Storage: "glusterfs", Workers: 2}, "storage system"},
		{Spec{App: "montage", Storage: "nfs", Workers: 2, WorkerType: "t2.micro"}, "worker type"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		var unknown *UnknownNameError
		if !errors.As(err, &unknown) {
			t.Fatalf("Validate(%+v) = %v, want *UnknownNameError", c.spec, err)
		}
		if unknown.Kind != c.kind {
			t.Errorf("Kind = %q, want %q", unknown.Kind, c.kind)
		}
		if len(unknown.Valid) == 0 || !strings.Contains(err.Error(), unknown.Valid[0]) {
			t.Errorf("error %q does not list the valid names %v", err, unknown.Valid)
		}
	}
	ok := Spec{App: "montage", Storage: "nfs", Workers: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestValidateWorkersBound pins the cluster-size bound: the shipped
// 1000-node study and a 10000-node one validate, a mistyped node count
// fails naming the field, in a spec and in an expanded experiment. No
// cell runs.
func TestValidateWorkersBound(t *testing.T) {
	for _, n := range []int{1, 1000, 10000, MaxWorkers} {
		s := Spec{App: "montage", Storage: "pvfs", Workers: n}
		if err := s.Validate(); err != nil {
			t.Errorf("workers=%d rejected: %v", n, err)
		}
	}
	for _, n := range []int{MaxWorkers + 1, 100000} {
		s := Spec{App: "montage", Storage: "pvfs", Workers: n}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "workers") {
			t.Errorf("workers=%d: Validate() = %v, want an error naming workers", n, err)
		}
	}
	e := Experiment{
		Base: Spec{App: "montage", Storage: "pvfs", Workers: 8},
		Axes: []Axis{{Field: "workers", Values: []any{8, 1000}}},
	}
	if _, err := e.Cells(); err != nil {
		t.Errorf("8/1000-node experiment rejected: %v", err)
	}
	e.Axes[0].Values = []any{8, 100000.0} // float from JSON
	if _, err := e.Cells(); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("Cells() with a 100000-node axis = %v, want an error naming workers", err)
	}
}

func TestExperimentCells(t *testing.T) {
	e := Experiment{
		Base: Spec{App: "montage", Storage: "nfs", Workers: 1},
		Axes: []Axis{
			{Field: "storage", Values: []any{"nfs", "s3"}},
			{Field: "workers", Values: []any{2.0, 4}}, // float from JSON, int from Go
		},
	}
	cells, err := e.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	want := []Spec{
		{App: "montage", Storage: "nfs", Workers: 2},
		{App: "montage", Storage: "nfs", Workers: 4},
		{App: "montage", Storage: "s3", Workers: 2},
		{App: "montage", Storage: "s3", Workers: 4},
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("cell %d = %+v, want %+v", i, cells[i], want[i])
		}
	}
}

func TestExperimentCellsRejectsBadAxis(t *testing.T) {
	e := Experiment{
		Base: Spec{App: "montage", Storage: "nfs", Workers: 2},
		Axes: []Axis{{Field: "nodes", Values: []any{1}}},
	}
	if _, err := e.Cells(); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("unknown axis error %v should list valid fields", err)
	}
	typo := Experiment{
		Base: Spec{App: "montage", Storage: "nfs", Workers: 2},
		Axes: []Axis{{Field: "storage", Values: []any{"glusterfs"}}},
	}
	var unknown *UnknownNameError
	if _, err := typo.Cells(); !errors.As(err, &unknown) {
		t.Errorf("axis typo error = %v, want *UnknownNameError", err)
	}
}

func TestExperimentReadBothShapes(t *testing.T) {
	full := `{"base": {"app": "montage", "storage": "nfs", "workers": 2}, "seeds": 3}`
	e, err := Read(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if e.Base.App != "montage" || e.Seeds != 3 {
		t.Errorf("experiment form misparsed: %+v", e)
	}
	bare := `{"app": "broadband", "storage": "s3", "workers": 4, "outage_rate": 1.5}`
	e, err = Read(strings.NewReader(bare))
	if err != nil {
		t.Fatal(err)
	}
	if e.Base.Storage != "s3" || e.Base.OutageRate != 1.5 || e.Seeds != 0 {
		t.Errorf("bare-spec form misparsed: %+v", e)
	}
	if _, err := Read(strings.NewReader(`{"app": "montage", "strage": "nfs"}`)); err == nil {
		t.Error("misspelled field accepted")
	}
}

func TestExperimentWriteReadRoundTrip(t *testing.T) {
	e := Experiment{
		Base:  Spec{App: "epigenome", Storage: "pvfs", Workers: 4, FailureRate: 0.1, MaxRetries: 5},
		Axes:  []Axis{{Field: "outage_rate", Values: []any{0.5, 1.0}}},
		Seeds: 5,
	}
	var b strings.Builder
	if err := e.Write(&b); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := e.Cells()
	if err != nil {
		t.Fatal(err)
	}
	backCells, err := back.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, backCells) || back.Seeds != e.Seeds {
		t.Errorf("round trip changed the experiment:\n got %+v\nwant %+v", back, e)
	}
}

// FuzzSpecRoundTrip asserts the two invariants every spec must hold:
// JSON round-trips are lossless, and the canonical key is stable across
// them (the serialized form memoizes identically to the original).
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add("montage", "nfs", 2, "c1.xlarge", false, uint64(0), uint64(0), 0.0, 0, uint64(0), 0.0, 0.0, uint64(0), 0.0)
	f.Add("broadband", "s3", 8, "", true, uint64(7), uint64(3), 0.1, 5, uint64(9), 1.5, 90.0, uint64(11), 60.5)
	f.Add("a|b", "c:d", -1, "weird\"type", false, ^uint64(0), uint64(1)<<63, -0.5, -3, uint64(1), 1e300, -1e-9, ^uint64(0)>>1, 0.0)
	f.Fuzz(func(t *testing.T, app, storage string, workers int, wt string, aware bool,
		seed, appSeed uint64, failRate float64, retries int, failSeed uint64,
		outRate, outDur float64, outSeed uint64, ckpt float64) {
		for _, name := range []string{app, storage, wt} {
			if !utf8.ValidString(name) {
				t.Skip() // JSON cannot represent invalid UTF-8 losslessly
			}
		}
		s := Spec{
			App: app, Storage: storage, Workers: workers, WorkerType: wt,
			DataAware: aware, Seed: seed, AppSeed: appSeed,
			FailureRate: failRate, MaxRetries: retries, FailureSeed: failSeed,
			OutageRate: outRate, OutageDuration: outDur, OutageSeed: outSeed,
			CheckpointInterval: ckpt,
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Skip() // NaN/Inf floats are unrepresentable in JSON
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal(%s): %v", data, err)
		}
		if back != s {
			t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", back, s)
		}
		if Key(&back) != Key(&s) {
			t.Fatalf("round trip changed the canonical key:\n got %q\nwant %q", Key(&back), Key(&s))
		}
		if PairKey(&back) != PairKey(&s) {
			t.Fatalf("round trip changed the pairing key")
		}
	})
}
