package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/resultcache"
	"ec2wfsim/internal/scenario"
	"ec2wfsim/internal/sweep"
)

// perLayer names every per-layer metric with its unit, in report
// order. Each traced run reports all of them; one a workload does not
// exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"apps.generate_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"cpu.sched", "share"},
	{"cpu.sim", "share"},
	{"cpu.flow", "share"},
	{"cpu.storage", "share"},
	{"cpu.wms", "share"},
	{"cpu.json", "share"},
	{"cpu.gc", "share"},
	{"cpu.alloc", "share"},
	{"storage.ops", "count"},
	{"storage.sim_io_s", "s"},
	{"storage.network_gb", "GB"},
	{"wms.run_s", "s"},
	{"harness.cells", "count"},
	{"harness.cell_p50_s", "s"},
	{"harness.cell_p90_s", "s"},
	{"sweep.cpu_util", "share"},
	{"sweep.tail_s", "s"},
	{"resultcache.put_us", "us"},
	{"resultcache.get_us", "us"},
	{"resultcache.hit_ratio", "share"},
	{"eventlog.events", "count"},
	{"eventlog.bytes_per_event", "B"},
	{"eventlog.record_ns", "ns"},
	{"eventlog.decode_s", "s"},
	{"eventlog.overhead_x", "x"},
	{"gc.alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.retained_mb", "MB"},
	{"trace.overhead_x", "x"},
}

// traceOutput collects a traced run's per-layer metrics and artifacts.
type traceOutput struct {
	metrics     map[string]float64
	untracedS   float64 // wall of the untraced pass the overhead compares with
	tracedS     float64 // wall of the traced composed pass
	profile     []byte
	attribution *attribution
}

// tracedPass runs fn under a CPU profile and MemStats deltas, and
// records the layer counts it gathered.
func (out *traceOutput) tracedPass(fn func() layerCounts) error {
	var prof bytes.Buffer
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	t := time.Now()
	lc := fn()
	out.tracedS = time.Since(t).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	out.profile = prof.Bytes()
	samples, err := readProfile(out.profile)
	if err != nil {
		return err
	}
	out.attribution = attribute(samples)
	for _, b := range []string{"sched", "sim", "flow", "storage", "wms", "json", "gc", "alloc"} {
		out.metrics["cpu."+b] = out.attribution.Share[b]
	}
	out.metrics["gc.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	out.metrics["gc.cycles"] = float64(m1.NumGC - m0.NumGC)
	out.metrics["gc.retained_mb"] = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20)
	out.metrics["apps.generate_s"] = float64(lc.genNs) / 1e9
	out.metrics["sim.events"] = float64(lc.events)
	if lc.events > 0 {
		out.metrics["sim.ns_per_event"] = float64(lc.wmsNs) / float64(lc.events)
	}
	out.metrics["wms.run_s"] = float64(lc.wmsNs) / 1e9
	out.metrics["storage.ops"] = float64(lc.ioOps)
	out.metrics["storage.sim_io_s"] = lc.simIOs
	out.metrics["storage.network_gb"] = lc.netBytes / 1e9
	if lc.logEvents > 0 {
		out.metrics["eventlog.events"] = float64(lc.logEvents)
		out.metrics["eventlog.bytes_per_event"] = float64(lc.logBytes) / float64(lc.logEvents)
		out.metrics["eventlog.record_ns"] = float64(lc.recordNs) / float64(lc.records)
		out.metrics["eventlog.decode_s"] = float64(lc.decodeNs) / 1e9
	}
	if out.untracedS > 0 {
		out.metrics["trace.overhead_x"] = out.tracedS / out.untracedS
	}
	return nil
}

func (out *traceOutput) cellTimes(ts []float64) {
	out.metrics["harness.cells"] = float64(len(ts))
	out.metrics["harness.cell_p50_s"] = percentile(ts, 0.5)
	out.metrics["harness.cell_p90_s"] = percentile(ts, 0.9)
}

// unit is one (cell, replicate) run of a workload.
type unit struct {
	cell, rep int
	cfg       harness.RunConfig
}

func gridUnits(in *inputs) []unit {
	var us []unit
	for i, cfg := range in.cells {
		for rep := 0; rep < gridSeeds; rep++ {
			us = append(us, unit{i, rep, harness.ReplicateConfig(cfg, rep)})
		}
	}
	return us
}

// pool runs fn over units on n workers and waits for all of them.
func pool(n int, units []unit, fn func(i int, u unit)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				fn(i, units[i])
			}
		}()
	}
	wg.Wait()
}

// tracePaperGrid measures the paper grid's layers: an untraced
// SweepSeeds pass for the sweep metrics and the makespans the
// composition must match, a harness.Run pass for per-cell times, the
// profiled composed pass, and a cold-then-warm result-cache pass.
func tracePaperGrid(in *inputs, out *traceOutput) passResult {
	// 1. The end-to-end pass, with completion timestamps.
	var stamps []float64
	var total int
	t0 := time.Now()
	c0 := cpuTime()
	reps, tally := gridPass(in, func(u sweep.Update[harness.RunConfig, *harness.RunResult]) {
		stamps = append(stamps, time.Since(t0).Seconds())
		total = u.Total
	})
	out.untracedS = time.Since(t0).Seconds()
	cpu := (cpuTime() - c0).Seconds()
	out.metrics["sweep.cpu_util"] = cpu / (out.untracedS * float64(in.nproc))
	// The tail starts once fewer runs are left than workers.
	for done, t := range stamps {
		if total-(done+1) < in.nproc {
			out.metrics["sweep.tail_s"] = stamps[len(stamps)-1] - t
			break
		}
	}
	if reps == nil {
		return tally
	}
	want := func(u unit) float64 { return reps[u.cell].Runs[u.rep].Makespan }
	units := gridUnits(in)

	// 2. harness.Run per unit, timed, on the same worker count.
	times := make([]float64, len(units))
	errs := make([]error, len(units))
	pool(in.nproc, units, func(i int, u unit) {
		t := time.Now()
		r, err := safeRun(u.cfg)
		times[i] = time.Since(t).Seconds()
		if err == nil && r.Makespan != want(u) {
			err = fmt.Errorf("harness.Run %s rep %d makespan %v, SweepSeeds gave %v", cellLabel(u.cfg), u.rep, r.Makespan, want(u))
		}
		errs[i] = err
	})
	for _, err := range errs {
		tally.ops++
		if err != nil {
			tally.fail(err)
		}
	}
	out.cellTimes(times)

	// 3. The composed pass, profiled. Replicate 0 reuses the set-up DAG
	// as the harness's DAG cache does; other replicates generate theirs.
	var mu sync.Mutex
	if err := out.tracedPass(func() layerCounts {
		var lc layerCounts
		pool(in.nproc, units, func(_ int, u unit) {
			dag := in.dags[dagKey{u.cfg.App, u.cfg.AppSeed}]
			if u.rep > 0 {
				dag = nil
			}
			c, err := compose(u.cfg, dag, nil)
			if err == nil && c.makespan != want(u) {
				err = fmt.Errorf("composed %s rep %d makespan %v, harness gave %v", cellLabel(u.cfg), u.rep, c.makespan, want(u))
			}
			mu.Lock()
			defer mu.Unlock()
			tally.ops++
			if err != nil {
				tally.fail(err)
			}
			lc.add(c)
		})
		return lc
	}); err != nil {
		tally.fail(err)
	}

	runtime.KeepAlive(reps) // live across the pass, so gc.retained_mb sees only its leaks

	// 4. The result cache, cold then warm, in a fresh store.
	cachePass(in, out, &tally)
	return tally
}

// cachePass sweeps the cells against a fresh result store twice. The
// warm rows must equal the cold ones byte for byte; Get and Put are
// timed directly on the filled store.
func cachePass(in *inputs, out *traceOutput, tally *passResult) {
	dir, err := os.MkdirTemp(in.scratch, "resultcache-")
	if err != nil {
		tally.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	store, err := resultcache.Open(filepath.Join(dir, "a"))
	if err != nil {
		tally.fail(err)
		return
	}
	sweepRows := func() []byte {
		tally.ops += len(in.cells)
		rs, err := harness.Sweep(in.cells, harness.SweepOptions{Parallel: in.nproc, NoMemo: true, Cache: store})
		if err != nil {
			tally.fail(err)
			return nil
		}
		rows := make([]harness.ResultJSON, len(rs))
		for i, r := range rs {
			rows[i] = r.JSONRow()
		}
		data, _ := json.Marshal(rows) // rows are plain numbers and strings
		return data
	}
	cold := sweepRows()
	h0, m0 := store.Stats()
	warm := sweepRows()
	h1, m1 := store.Stats()
	if cold == nil || warm == nil {
		return
	}
	if err := checkWarmRows(cold, warm); err != nil {
		tally.fail(err)
	}
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		out.metrics["resultcache.hit_ratio"] = float64(h1-h0) / float64(n)
	}
	fresh, err := resultcache.Open(filepath.Join(dir, "b"))
	if err != nil {
		tally.fail(err)
		return
	}
	var gets, puts []float64
	for _, cfg := range in.cells {
		key, ok := harness.CacheKey(cfg)
		if !ok {
			continue
		}
		t := time.Now()
		row, err := store.Get(key)
		gets = append(gets, time.Since(t).Seconds()*1e6)
		if err != nil {
			tally.fail(err)
			continue
		}
		t = time.Now()
		err = fresh.Put(key, row)
		puts = append(puts, time.Since(t).Seconds()*1e6)
		if err != nil {
			tally.fail(err)
		}
	}
	out.metrics["resultcache.get_us"] = median(gets)
	out.metrics["resultcache.put_us"] = median(puts)
}

// checkWarmRows fails unless cache-served rows equal computed ones.
func checkWarmRows(cold, warm []byte) error {
	if !bytes.Equal(cold, warm) {
		return fmt.Errorf("warm-cache rows differ from cold rows")
	}
	return nil
}

// traceScale measures the single 128-worker cell: harness.Run untraced,
// then the composed run under the profile.
func traceScale(in *inputs, out *traceOutput) passResult {
	var tally passResult
	var times []float64
	want := make([]float64, len(in.cells))
	t0 := time.Now()
	for i, cfg := range in.cells {
		tally.ops++
		t := time.Now()
		r, err := safeRun(cfg)
		times = append(times, time.Since(t).Seconds())
		if err == nil {
			err = checkComplete(r, in.tasks[cfg.App])
		}
		if err != nil {
			tally.fail(err)
			return tally
		}
		want[i] = r.Makespan
	}
	out.untracedS = time.Since(t0).Seconds()
	out.cellTimes(times)
	if err := out.tracedPass(func() layerCounts {
		var lc layerCounts
		for i, cfg := range in.cells {
			tally.ops++
			c, err := compose(cfg, nil, nil)
			if err == nil && c.makespan != want[i] {
				err = fmt.Errorf("composed %s makespan %v, harness gave %v", cellLabel(cfg), c.makespan, want[i])
			}
			if err != nil {
				tally.fail(err)
			}
			lc.add(c)
		}
		return lc
	}); err != nil {
		tally.fail(err)
	}
	return tally
}

// traceReplay measures the event-log path. The untraced pass is the
// end-to-end record+verify; harness.Run on the same cells gives the
// recording overhead. The composed pass records through a timing
// recorder, decodes, replays from the decoded header and compares,
// which is ReplayVerify rebuilt from outside.
func traceReplay(in *inputs, out *traceOutput) passResult {
	var tally passResult
	var runTimes []float64
	var runS, recS float64
	logs := make([][]byte, len(in.cells))
	recorded := make([]float64, len(in.cells))
	t0 := time.Now()
	for i, cfg := range in.cells {
		tally.ops++
		var buf bytes.Buffer
		t := time.Now()
		r, err := harness.RunRecorded(cfg, &buf)
		recS += time.Since(t).Seconds()
		if err == nil {
			err = checkComplete(r, in.tasks[cfg.App])
		}
		if err == nil {
			err = verifyLog(buf.Bytes())
		}
		if err != nil {
			tally.fail(err)
			return tally
		}
		logs[i] = buf.Bytes()
		recorded[i] = r.Makespan
	}
	out.untracedS = time.Since(t0).Seconds()
	for i, cfg := range in.cells {
		tally.ops++
		t := time.Now()
		r, err := safeRun(cfg)
		runTimes = append(runTimes, time.Since(t).Seconds())
		runS += runTimes[len(runTimes)-1]
		if err == nil && r.Makespan != recorded[i] {
			err = fmt.Errorf("%s: harness.Run makespan %v, RunRecorded %v", cellLabel(cfg), r.Makespan, recorded[i])
		}
		if err != nil {
			tally.fail(err)
		}
	}
	out.cellTimes(runTimes)
	out.metrics["eventlog.overhead_x"] = recS / runS
	if err := out.tracedPass(func() layerCounts {
		var lc layerCounts
		for i, cfg := range in.cells {
			tally.ops++
			c, err := composedRecordVerify(cfg, logs[i])
			if err != nil {
				tally.fail(err)
			}
			lc.add(c)
		}
		return lc
	}); err != nil {
		tally.fail(err)
	}
	runtime.KeepAlive(logs) // live across the pass, so gc.retained_mb sees only its leaks
	return tally
}

// composedRecordVerify records cfg from the layers and requires the
// log to equal want (RunRecorded's), then decodes it, replays the
// configuration its header describes, and requires the same bytes.
func composedRecordVerify(cfg harness.RunConfig, want []byte) (layerCounts, error) {
	h, err := header(cfg)
	if err != nil {
		return layerCounts{}, err
	}
	log, lc, err := composeRecorded(cfg, h)
	if err != nil {
		return lc, err
	}
	if !bytes.Equal(log, want) {
		return lc, fmt.Errorf("composed log of %s differs from RunRecorded's", cellLabel(cfg))
	}
	t := time.Now()
	dh, _, _, err := eventlog.Decode(log)
	lc.decodeNs += int64(time.Since(t))
	if err != nil {
		return lc, err
	}
	var spec scenario.Spec
	if err := json.Unmarshal(dh.Spec, &spec); err != nil {
		return lc, err
	}
	replayed, rc, err := composeRecorded(harness.SpecConfig(spec), dh)
	rc.logEvents, rc.logBytes = 0, 0 // count the recorded log once
	lc.add(rc)
	if err != nil {
		return lc, err
	}
	if !bytes.Equal(replayed, log) {
		return lc, fmt.Errorf("composed replay of %s diverged", cellLabel(cfg))
	}
	return lc, nil
}
