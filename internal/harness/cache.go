package harness

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ec2wfsim/internal/cost"
	"ec2wfsim/internal/resultcache"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
)

// The persistent result cache (internal/resultcache) sits under the
// process-wide memo: a cell that misses the in-process cache consults
// the on-disk store before simulating, so repeated cells are free
// across invocations, CI runs and users sharing a store directory.
// Cached entries carry the canonical metric row — everything the JSON
// and CSV exports, the replicate aggregations and the figures consume —
// but not the execution trace: a cache-served RunResult has nil Spans
// and Cluster, which is why trace-rendering paths (wfsim -gantt/-csv,
// event recording, Amortize) never run through the cache.

// cacheRow is the canonical serialized payload of one cached result.
// Field order is fixed by the struct, so the encoding is a pure
// function of the result and cold-vs-warm exports are byte-identical.
type cacheRow struct {
	Spec          scenario.Spec `json:"spec"`
	Makespan      float64       `json:"makespan_s"`
	ProvisionTime float64       `json:"provision_s"`
	Utilization   float64       `json:"utilization"`
	wms.Counters
	Stats      storage.Stats  `json:"stats"`
	CostHour   cost.Breakdown `json:"cost_hour"`
	CostSecond cost.Breakdown `json:"cost_second"`
}

// CacheKey derives the persistent-store key for a configuration:
// the canonical scenario key of the effective spec (replicates carry
// their reseeded spec, so every replicate is its own entry) and the
// effective seed. Custom in-memory workflows are not keyable — the DAG
// is not part of the spec — so those configurations never touch the
// store.
func CacheKey(cfg RunConfig) (resultcache.Key, bool) {
	if cfg.Workflow != nil {
		return resultcache.Key{}, false
	}
	spec := cfg.Spec()
	seed := spec.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	return resultcache.Key{Cell: scenario.Key(&spec), Seed: seed}, true
}

// encodeRow renders a result's canonical cached payload.
func encodeRow(r *RunResult) ([]byte, error) {
	spec := r.Config.Spec()
	return json.Marshal(cacheRow{
		Spec:          spec,
		Makespan:      r.Makespan,
		ProvisionTime: r.ProvisionTime,
		Utilization:   r.Utilization,
		Counters:      r.Counters,
		Stats:         r.Stats,
		CostHour:      r.CostHour,
		CostSecond:    r.CostSecond,
	})
}

// decodeRow rebuilds a RunResult from a cached payload. Decoding is
// strict — unknown fields mean the entry was written by a newer layout
// under the same schema version, and recomputing beats misreading. The
// embedded spec must render the same canonical cell key the entry was
// fetched under, closing the loop between file content and key.
func decodeRow(data []byte, cfg RunConfig, key resultcache.Key) (*RunResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var row cacheRow
	if err := dec.Decode(&row); err != nil {
		return nil, fmt.Errorf("harness: cached row undecodable: %w", err)
	}
	if got := scenario.Key(&row.Spec); got != key.Cell {
		return nil, fmt.Errorf("harness: cached row spec renders key %q, want %q", got, key.Cell)
	}
	return &RunResult{
		Config:        cfg,
		Makespan:      row.Makespan,
		ProvisionTime: row.ProvisionTime,
		Utilization:   row.Utilization,
		Counters:      row.Counters,
		Stats:         row.Stats,
		CostHour:      row.CostHour,
		CostSecond:    row.CostSecond,
	}, nil
}

// cachedRun wraps a cell runner with the persistent store: consult
// before simulating, persist after. Any store trouble — a miss, a
// corrupt or schema-mismatched entry, an undecodable payload — falls
// back to recomputing, and a fresh Put overwrites the bad entry; a
// failed Put is not a run failure (the result is still correct, the
// next run just recomputes it).
func cachedRun(store *resultcache.Store, run func(RunConfig) (*RunResult, error)) func(RunConfig) (*RunResult, error) {
	return func(cfg RunConfig) (*RunResult, error) {
		key, ok := CacheKey(cfg)
		if !ok {
			return run(cfg)
		}
		if data, err := store.Get(key); err == nil {
			if r, derr := decodeRow(data, cfg, key); derr == nil {
				return r, nil
			}
		}
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		if data, eerr := encodeRow(r); eerr == nil {
			_ = store.Put(key, data)
		}
		return r, nil
	}
}
