package scenario

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
)

// A group is one self-describing block of scenario options. Each group
// declares every projection of its fields in one place:
//
//   - key: its segment of the canonical cell key (Key), with defaults
//     normalized so equivalent configurations memoize together;
//   - pairKey: its contribution to the seed-pairing hash (ReplicateSeed),
//     or none — knob groups are excluded so a knob cell's replicates
//     share jitter seeds with its baseline and overheads stay paired;
//   - reseed: how a derived replicate seed lands in its seed fields;
//   - flags: the CLI flags it registers (RegisterFlags);
//   - axes: the sweep axes it exposes, keyed by Spec JSON field name.
//
// Adding a scenario knob means adding one group (or one entry to an
// existing group) — memoization, replication, CLI parity and grid axes
// all follow from this table.
type group struct {
	name     string
	identity bool // names the cell (vs tunes a knob); identity flags are wfsim-only
	key      func(s *Spec) string
	pairKey  func(s *Spec) (string, bool)
	reseed   func(s *Spec, derived uint64)
	flags    func(fs *flag.FlagSet, s *Spec)
	axes     map[string]func(s *Spec, v any) error
}

// Replicate-seed salts decorrelate a replicate's failure-injection and
// outage streams from the provisioning stream that shares its derived
// seed.
const (
	failureSeedSalt uint64 = 0xFA11AB1E
	outageSeedSalt  uint64 = 0x0D07A6E5
)

// groups is the ordered option table. The order is load-bearing: the
// canonical key and the pairing hash are the "|"-joins of the group
// segments, and both must stay byte-identical to the pre-scenario
// hand-maintained encodings (see TestCellKeyMatchesOracle in harness).
var groups = []group{
	{
		name:     "cell",
		identity: true,
		key: func(s *Spec) string {
			return fmt.Sprintf("%s|%s|n=%d", s.App, s.Storage, s.Workers)
		},
		pairKey: func(s *Spec) (string, bool) {
			return fmt.Sprintf("%s|%s|%d", s.App, s.Storage, s.Workers), true
		},
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.StringVar(&s.App, "app", s.App, "application: "+strings.Join(apps.Names(), ", "))
			fs.StringVar(&s.Storage, "storage", s.Storage, "storage system: "+strings.Join(storage.Names(), ", "))
			fs.IntVar(&s.Workers, "nodes", s.Workers, "number of worker nodes")
		},
		axes: map[string]func(s *Spec, v any) error{
			"app":     func(s *Spec, v any) error { return setString(&s.App, "app", v) },
			"storage": func(s *Spec, v any) error { return setString(&s.Storage, "storage", v) },
			"workers": func(s *Spec, v any) error { return setInt(&s.Workers, "workers", v) },
		},
	},
	{
		name:     "workertype",
		identity: true,
		key: func(s *Spec) string {
			if s.WorkerType == "" {
				return "c1.xlarge"
			}
			return s.WorkerType
		},
		// The pairing hash keeps the raw (unnormalized) name — an
		// explicit c1.xlarge derives different replicate seeds than the
		// default, exactly as the pre-scenario hash did.
		pairKey: func(s *Spec) (string, bool) { return s.WorkerType, true },
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.StringVar(&s.WorkerType, "worker-type", s.WorkerType,
				"worker instance type: "+strings.Join(cluster.TypeNames(), ", ")+"; empty = c1.xlarge")
		},
		axes: map[string]func(s *Spec, v any) error{
			"worker_type": func(s *Spec, v any) error { return setString(&s.WorkerType, "worker_type", v) },
		},
	},
	{
		name:     "seed",
		identity: true,
		key: func(s *Spec) string {
			seed := s.Seed
			if seed == 0 {
				seed = DefaultSeed
			}
			return fmt.Sprintf("seed=%d", seed)
		},
		reseed: func(s *Spec, derived uint64) { s.Seed = derived },
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.Uint64Var(&s.Seed, "seed", s.Seed, "provisioning jitter seed (0 = the fixed default)")
		},
		axes: map[string]func(s *Spec, v any) error{
			"seed": func(s *Spec, v any) error { return setUint64(&s.Seed, "seed", v) },
		},
	},
	{
		name:   "appseed",
		key:    func(s *Spec) string { return fmt.Sprintf("appseed=%d", s.AppSeed) },
		reseed: func(s *Spec, derived uint64) { s.AppSeed = derived },
		axes: map[string]func(s *Spec, v any) error{
			"app_seed": func(s *Spec, v any) error { return setUint64(&s.AppSeed, "app_seed", v) },
		},
	},
	{
		name:     "scheduler",
		identity: true,
		key:      func(s *Spec) string { return fmt.Sprintf("aware=%t", s.DataAware) },
		pairKey:  func(s *Spec) (string, bool) { return fmt.Sprintf("%t", s.DataAware), true },
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.BoolVar(&s.DataAware, "data-aware", s.DataAware, "use the locality-aware scheduler (paper future work)")
		},
		axes: map[string]func(s *Spec, v any) error{
			"data_aware": func(s *Spec, v any) error { return setBool(&s.DataAware, "data_aware", v) },
		},
	},
	{
		name: "diskinit",
		key: func(s *Spec) string {
			return fmt.Sprintf("init=%t:%g", s.InitializeDisks, s.InitializeBytes)
		},
		// Only the on/off bit pairs replicate seeds; the byte count
		// never did (kept for hash compatibility).
		pairKey: func(s *Spec) (string, bool) { return fmt.Sprintf("%t", s.InitializeDisks), true },
		axes: map[string]func(s *Spec, v any) error{
			"initialize_disks": func(s *Spec, v any) error { return setBool(&s.InitializeDisks, "initialize_disks", v) },
			"initialize_bytes": func(s *Spec, v any) error { return setFloat(&s.InitializeBytes, "initialize_bytes", v) },
		},
	},
	{
		name: "failures",
		key: func(s *Spec) string {
			var retries int
			var failSeed uint64
			if s.FailureRate > 0 {
				retries = s.MaxRetries
				if retries == 0 {
					retries = wms.DefaultMaxRetries
				}
				failSeed = s.FailureSeed
				if failSeed == 0 {
					failSeed = wms.DefaultFailureSeed
				}
			}
			return fmt.Sprintf("fail=%g:%d:%d", s.FailureRate, retries, failSeed)
		},
		reseed: func(s *Spec, derived uint64) {
			if s.FailureRate > 0 {
				s.FailureSeed = derived ^ failureSeedSalt
			}
		},
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.Float64Var(&s.FailureRate, "failure-rate", s.FailureRate,
				"inject transient task failures with this per-attempt probability (0 = paper's failure-free setting)")
			fs.IntVar(&s.MaxRetries, "max-retries", s.MaxRetries,
				"failed attempts allowed per task; 0 = DAGMan's default of 3")
			fs.Uint64Var(&s.FailureSeed, "failure-seed", s.FailureSeed,
				"failure-injection RNG seed; 0 = fixed default")
		},
		axes: map[string]func(s *Spec, v any) error{
			"failure_rate": func(s *Spec, v any) error { return setFloat(&s.FailureRate, "failure_rate", v) },
			"max_retries":  func(s *Spec, v any) error { return setInt(&s.MaxRetries, "max_retries", v) },
			"failure_seed": func(s *Spec, v any) error { return setUint64(&s.FailureSeed, "failure_seed", v) },
		},
	},
	{
		name: "outages",
		key: func(s *Spec) string {
			var outDur float64
			var outSeed uint64
			if s.OutageRate > 0 {
				outDur = s.OutageDuration
				if outDur == 0 {
					outDur = wms.DefaultOutageDuration
				}
				outSeed = s.OutageSeed
				if outSeed == 0 {
					outSeed = wms.DefaultOutageSeed
				}
			}
			return fmt.Sprintf("out=%g:%g:%d", s.OutageRate, outDur, outSeed)
		},
		reseed: func(s *Spec, derived uint64) {
			if s.OutageRate > 0 {
				s.OutageSeed = derived ^ outageSeedSalt
			}
		},
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.Float64Var(&s.OutageRate, "outage-rate", s.OutageRate,
				"inject correlated node outages at this rate per node-hour (0 = paper's outage-free setting)")
			fs.Float64Var(&s.OutageDuration, "outage-duration", s.OutageDuration,
				"mean outage length in seconds; 0 = the default of 120")
			fs.Uint64Var(&s.OutageSeed, "outage-seed", s.OutageSeed,
				"outage-schedule RNG seed; 0 = fixed default")
		},
		axes: map[string]func(s *Spec, v any) error{
			"outage_rate":     func(s *Spec, v any) error { return setFloat(&s.OutageRate, "outage_rate", v) },
			"outage_duration": func(s *Spec, v any) error { return setFloat(&s.OutageDuration, "outage_duration", v) },
			"outage_seed":     func(s *Spec, v any) error { return setUint64(&s.OutageSeed, "outage_seed", v) },
		},
	},
	{
		name: "checkpointing",
		key:  func(s *Spec) string { return fmt.Sprintf("ckpt=%g", s.CheckpointInterval) },
		flags: func(fs *flag.FlagSet, s *Spec) {
			fs.Float64Var(&s.CheckpointInterval, "checkpoint-interval", s.CheckpointInterval,
				"write a checkpoint every this many seconds of computation and resume killed tasks from it (0 = no checkpointing)")
		},
		axes: map[string]func(s *Spec, v any) error{
			"checkpoint_interval": func(s *Spec, v any) error { return setFloat(&s.CheckpointInterval, "checkpoint_interval", v) },
		},
	},
}

// Key renders the canonical memoization key: the "|"-join of every
// group's normalized segment. Equivalent configurations (an explicit
// c1.xlarge or seed 0x5EED versus the zero value; failure or outage
// knobs set while their rate is 0) render identical keys.
func Key(s *Spec) string {
	segs := make([]string, len(groups))
	for i, g := range groups {
		segs[i] = g.key(s)
	}
	return strings.Join(segs, "|")
}

// PairKey renders the seed-pairing hash input: the "|"-join of the
// segments from groups that participate in replicate-seed derivation.
// Knob groups (failures, outages, checkpointing) and the seed fields
// themselves are excluded, so replicate r of a knob cell derives the
// same jitter seeds as replicate r of its knob-free baseline — paired
// overhead comparisons instead of confounded ones.
func PairKey(s *Spec) string {
	var segs []string
	for _, g := range groups {
		if g.pairKey == nil {
			continue
		}
		if seg, ok := g.pairKey(s); ok {
			segs = append(segs, seg)
		}
	}
	return strings.Join(segs, "|")
}

// ReplicateSeed derives the jitter seed for one replicate of a spec.
// Replicate 0 is the spec's own seed (the paper's fixed default when
// unset); higher replicates hash the pairing key so each cell's seed
// sequence depends only on its configuration, never on scheduling or
// batch position.
func ReplicateSeed(s *Spec, replicate int) uint64 {
	base := s.Seed
	if base == 0 {
		base = DefaultSeed
	}
	if replicate == 0 {
		return base
	}
	r := rng.New((rng.HashString(PairKey(s)) ^ base) + uint64(replicate))
	v := r.Uint64()
	if v == 0 { // zero means "default" downstream; avoid colliding with it
		v = 1
	}
	return v
}

// Reseed lands one derived replicate seed in every seed field the
// spec's active options declare: provisioning and app jitter always,
// the failure and outage streams (salted) only when their rates are
// non-zero.
func Reseed(s *Spec, derived uint64) {
	for _, g := range groups {
		if g.reseed != nil {
			g.reseed(s, derived)
		}
	}
}

// RegisterFlags registers every group's CLI flags on fs, bound to s;
// current field values become the flag defaults. Identity flags (-app,
// -storage, -nodes, -worker-type, -seed, -data-aware) are registered
// only when identity is true — wfbench sweeps those axes itself and
// registers knob flags alone, wfsim registers everything.
func RegisterFlags(fs *flag.FlagSet, s *Spec, identity bool) {
	for _, g := range groups {
		if g.flags == nil || (g.identity && !identity) {
			continue
		}
		g.flags(fs, s)
	}
}

// FlagNames lists the flag names RegisterFlags(..., identity) would
// register — CLIs use it to reject scenario flags combined with -spec.
func FlagNames(identity bool) []string {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	var scratch Spec
	RegisterFlags(fs, &scratch, identity)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// SetField assigns one axis value to a spec field by its JSON name.
// Values may come from JSON (float64/string/bool) or from typed Go
// callers (int/uint64/float64/string/bool).
func SetField(s *Spec, field string, v any) error {
	for _, g := range groups {
		if set, ok := g.axes[field]; ok {
			return set(s, v)
		}
	}
	return fmt.Errorf("scenario: unknown axis field %q (valid: %s)",
		field, strings.Join(AxisFields(), ", "))
}

// AxisFields lists every sweepable field name, sorted.
func AxisFields() []string {
	var out []string
	for _, g := range groups {
		for name := range g.axes {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Axis-value coercions. JSON decodes every number as float64, so the
// integer setters accept integral floats; typed Go callers pass native
// ints and uint64s through unchanged.

func setString(dst *string, field string, v any) error {
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("scenario: axis %s wants a string, got %T", field, v)
	}
	*dst = s
	return nil
}

func setBool(dst *bool, field string, v any) error {
	b, ok := v.(bool)
	if !ok {
		return fmt.Errorf("scenario: axis %s wants a bool, got %T", field, v)
	}
	*dst = b
	return nil
}

func setFloat(dst *float64, field string, v any) error {
	switch x := v.(type) {
	case float64:
		*dst = x
	case int:
		*dst = float64(x)
	case int64:
		*dst = float64(x)
	default:
		return fmt.Errorf("scenario: axis %s wants a number, got %T", field, v)
	}
	return nil
}

func setInt(dst *int, field string, v any) error {
	switch x := v.(type) {
	case int:
		*dst = x
	case int64:
		*dst = int(x)
	case float64:
		if x != float64(int(x)) {
			return fmt.Errorf("scenario: axis %s wants an integer, got %g", field, x)
		}
		*dst = int(x)
	default:
		return fmt.Errorf("scenario: axis %s wants an integer, got %T", field, v)
	}
	return nil
}

func setUint64(dst *uint64, field string, v any) error {
	switch x := v.(type) {
	case uint64:
		*dst = x
	case int:
		if x < 0 {
			return fmt.Errorf("scenario: axis %s wants a non-negative seed, got %d", field, x)
		}
		*dst = uint64(x)
	case int64:
		if x < 0 {
			return fmt.Errorf("scenario: axis %s wants a non-negative seed, got %d", field, x)
		}
		*dst = uint64(x)
	case float64:
		if x < 0 || x != float64(uint64(x)) {
			return fmt.Errorf("scenario: axis %s wants a non-negative integer seed, got %g", field, x)
		}
		*dst = uint64(x)
	default:
		return fmt.Errorf("scenario: axis %s wants a seed, got %T", field, v)
	}
	return nil
}
