package flow

import (
	"fmt"
	"testing"

	"ec2wfsim/internal/sim"
)

// FuzzReallocate is the solver's correctness rail: it decodes a random
// event script (blocking transfers, batched fan-outs with pooled window
// caps, capacity changes, load probes, all at fuzzed times over a fuzzed
// resource set) and drives it through the from-scratch oracle preserved
// in oracle_test.go and through the solver. The contract is oracle ≈
// solver, within a stated per-timestamp tolerance: the solver's
// coalesced solves and heap tie-breaks reorder float arithmetic, and its
// per-component completion checks can resolve a transfer that is within
// completionEps of done up to "the time the fair share moves half a
// byte" away from where the oracle's global sweep resolves it (see
// script.timeSlack). Conservation is exact: identical byte and transfer
// totals, every op completes on both sides, and every resource drains
// to exactly zero residual load.

// script is one decoded fuzz scenario.
type script struct {
	caps []float64 // initial resource capacities
	ops  []scriptOp
}

type scriptOp struct {
	at   float64
	kind byte // 0 blocking transfer, 1 fan-out batch, 2 set capacity, 3 probe

	size   float64 // transfer: total size; fan-out: per-shard size
	res    []int   // transfer: resource indices
	shards [][]int // fan-out: per-shard resource indices
	capRt  float64 // fan-out: window cap rate (0 = none)

	capIdx int     // set capacity: resource index
	capVal float64 // set capacity: new capacity
}

// decodeScript turns fuzz bytes into a bounded, always-valid scenario.
func decodeScript(data []byte) *script {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	nRes := next()%5 + 1
	s := &script{}
	for i := 0; i < nRes; i++ {
		s.caps = append(s.caps, float64(next()%500+1))
	}
	subset := func() []int {
		mask := next() % (1 << nRes)
		if mask == 0 {
			mask = 1
		}
		var idxs []int
		for i := 0; i < nRes; i++ {
			if mask&(1<<i) != 0 {
				idxs = append(idxs, i)
			}
		}
		return idxs
	}
	nOps := next()%32 + 1
	at := 0.0
	for i := 0; i < nOps; i++ {
		at += float64(next()%64) / 8 // gaps of 0..7.875s; 0 keeps same-time races
		op := scriptOp{at: at, kind: byte(next() % 4)}
		switch op.kind {
		case 0:
			// Sizes reach down to 0.25 bytes — below completionEps — to
			// exercise the instant-completion path on both sides.
			op.size = float64(next()%4000)/4 + 0.25
			op.res = subset()
		case 1:
			op.size = float64(next()%2000)/4 + 0.25
			shards := next()%4 + 1
			for j := 0; j < shards; j++ {
				op.shards = append(op.shards, subset())
			}
			if next()%2 == 0 {
				op.capRt = float64(next()%200 + 1)
			}
		case 2:
			op.capIdx = next() % nRes
			op.capVal = float64(next()%500 + 1)
		}
		s.ops = append(s.ops, op)
	}
	return s
}

// expectedTotals computes the byte and transfer totals the script must
// produce from the script alone (sizes are exact binary quarters, so the
// sum is exact): the oracle-free conservation anchor.
func (s *script) expectedTotals() (bytes float64, count int64) {
	for _, op := range s.ops {
		switch op.kind {
		case 0:
			bytes += op.size
			count++
		case 1:
			bytes += op.size * float64(len(op.shards))
			count += int64(len(op.shards))
		}
	}
	return bytes, count
}

// timeSlack bounds how far a solver completion timestamp may drift from
// the oracle's. Both complete a transfer somewhere inside the window
// where under completionEps bytes remain; the oracle resolves it at the
// first global timer event in that window, the solver at the first event
// touching its component. The window lasts at most completionEps divided by the
// slowest possible fair share (every transfer contending on the smallest
// capacity in the script), and a drifted departure perturbs its
// neighbours' rates for at most that long again — hence the small
// constant headroom on top of the single-window bound.
func (s *script) timeSlack() float64 {
	minCap := s.caps[0]
	for _, c := range s.caps {
		if c < minCap {
			minCap = c
		}
	}
	n := 0
	for _, op := range s.ops {
		switch op.kind {
		case 0:
			n++
		case 1:
			n += len(op.shards)
			if op.capRt > 0 && op.capRt < minCap {
				minCap = op.capRt
			}
		case 2:
			if op.capVal < minCap {
				minCap = op.capVal
			}
		}
	}
	if n == 0 {
		return 1
	}
	return 4 * completionEps * float64(n) / minCap
}

// trace is everything a run observes; runs of one implementation compare
// traces bit-exactly, solver against oracle per the contract above.
type trace struct {
	completions []float64 // per transfer/fan-out op, completion time
	probes      []float64 // per probe op, active count then per-resource loads
	finalLoads  []float64 // per resource, committed load after the run drains
	end         float64
	totalBytes  float64
	totalCount  int64
}

// flowDriver abstracts the two implementations behind one script runner.
type flowDriver interface {
	transfer(p *sim.Proc, size float64, res []int)
	fanout(p *sim.Proc, size float64, shards [][]int, capRate float64)
	setCapacity(idx int, c float64)
	load(idx int) float64
	activeCount() int
	totals() (float64, int64)
}

type realDriver struct {
	n  *Net
	rs []*Resource

	// pickBuf is reused across ops: Transfer and Batch.Add copy the
	// resource list into the transfer record before returning, so the
	// scratch is dead by the time the next op runs.
	pickBuf []*Resource
}

// resNames is precomputed so the benchmark shapes do not charge a
// Sprintf per resource per iteration to both drivers' setup (a constant
// added to each mode's ns/op that dilutes their ratio). Sized for the
// largest shape (scale1000: 3000 resources); read-only after init, so
// parallel subtests share it safely.
var resNames = func() []string {
	ns := make([]string, 3072)
	for i := range ns {
		ns[i] = fmt.Sprintf("r%d", i)
	}
	return ns
}()

func resName(i int) string {
	if i < len(resNames) {
		return resNames[i]
	}
	return fmt.Sprintf("r%d", i)
}

// solverSubtest names the subtest under which the metamorphic and
// allocation checks run the solver. It is the label the coalescing solver
// had while an eager solver ran beside it as version 1; keeping it keeps
// those tests' names stable.
const solverSubtest = "v2"

func newRealDriver(e *sim.Engine, caps []float64) *realDriver {
	d := &realDriver{n: NewNet(e), rs: make([]*Resource, 0, len(caps))}
	for i, c := range caps {
		d.rs = append(d.rs, NewResource(resName(i), c))
	}
	return d
}

func (d *realDriver) pick(base []*Resource, idxs []int) []*Resource {
	for _, idx := range idxs {
		base = append(base, d.rs[idx])
	}
	return base
}

func (d *realDriver) transfer(p *sim.Proc, size float64, res []int) {
	d.pickBuf = d.pick(d.pickBuf[:0], res)
	d.n.Transfer(p, size, d.pickBuf...)
}

func (d *realDriver) fanout(p *sim.Proc, size float64, shards [][]int, capRate float64) {
	var cap *Resource
	if capRate > 0 {
		cap = d.n.AcquireCap("win", capRate)
	}
	b := d.n.NewBatch()
	for _, sh := range shards {
		rs := d.pickBuf[:0]
		if cap != nil {
			rs = append(rs, cap)
		}
		rs = d.pick(rs, sh)
		d.pickBuf = rs
		b.Add(size, rs...)
	}
	b.Run(p)
	if cap != nil {
		d.n.ReleaseCap(cap)
	}
}

func (d *realDriver) setCapacity(idx int, c float64) { d.n.SetResourceCapacity(d.rs[idx], c) }

// load and activeCount Sync first so probes observe the rates in effect
// at the probe's own timestamp under the solver's deferred solves.
func (d *realDriver) load(idx int) float64     { d.n.Sync(); return d.rs[idx].Load() }
func (d *realDriver) activeCount() int         { d.n.Sync(); return d.n.Active() }
func (d *realDriver) totals() (float64, int64) { return d.n.TotalBytes, d.n.TotalTransfers }

type oracleDriver struct {
	n  *oracleNet
	rs []*oracleResource
}

func newOracleDriver(e *sim.Engine, caps []float64) *oracleDriver {
	d := &oracleDriver{n: newOracleNet(e), rs: make([]*oracleResource, 0, len(caps))}
	for i, c := range caps {
		d.rs = append(d.rs, newOracleResource(resName(i), c))
	}
	return d
}

func (d *oracleDriver) pick(idxs []int) []*oracleResource {
	rs := make([]*oracleResource, len(idxs))
	for i, idx := range idxs {
		rs[i] = d.rs[idx]
	}
	return rs
}

func (d *oracleDriver) transfer(p *sim.Proc, size float64, res []int) {
	d.n.Transfer(p, size, d.pick(res)...)
}

// fanout reproduces the historical fan-out idiom: one StartTransfer per
// shard (each paying a full reallocation), a private window-cap resource,
// then waiting the shard handles in order.
func (d *oracleDriver) fanout(p *sim.Proc, size float64, shards [][]int, capRate float64) {
	var cap *oracleResource
	if capRate > 0 {
		cap = newOracleResource("win", capRate)
	}
	var pds []*oraclePending
	for _, sh := range shards {
		var rs []*oracleResource
		if cap != nil {
			rs = append(rs, cap)
		}
		rs = append(rs, d.pick(sh)...)
		pds = append(pds, d.n.StartTransfer(size, rs...))
	}
	for _, pd := range pds {
		pd.Wait(p)
	}
}

func (d *oracleDriver) setCapacity(idx int, c float64) { d.n.SetResourceCapacity(d.rs[idx], c) }
func (d *oracleDriver) load(idx int) float64           { return d.rs[idx].Load() }
func (d *oracleDriver) activeCount() int               { return d.n.Active() }
func (d *oracleDriver) totals() (float64, int64)       { return d.n.TotalBytes, d.n.TotalTransfers }

// runScript schedules the whole scenario up front (so both runs assign
// identical event sequence numbers to the script skeleton) and executes
// it to completion.
func runScript(s *script, build func(e *sim.Engine, caps []float64) flowDriver) *trace {
	e := sim.NewEngine()
	d := build(e, s.caps)
	tr := &trace{completions: make([]float64, len(s.ops))}
	for i := range tr.completions {
		tr.completions[i] = -1
	}
	for i, op := range s.ops {
		i, op := i, op
		switch op.kind {
		case 0:
			e.At(op.at, func() {
				e.Go("t", func(p *sim.Proc) {
					d.transfer(p, op.size, op.res)
					tr.completions[i] = p.Now()
				})
			})
		case 1:
			e.At(op.at, func() {
				e.Go("f", func(p *sim.Proc) {
					d.fanout(p, op.size, op.shards, op.capRt)
					tr.completions[i] = p.Now()
				})
			})
		case 2:
			e.At(op.at, func() { d.setCapacity(op.capIdx, op.capVal) })
		case 3:
			e.At(op.at, func() {
				tr.probes = append(tr.probes, float64(d.activeCount()))
				for idx := range s.caps {
					tr.probes = append(tr.probes, d.load(idx))
				}
			})
		}
	}
	e.Run()
	tr.end = e.Now()
	tr.totalBytes, tr.totalCount = d.totals()
	for idx := range s.caps {
		tr.finalLoads = append(tr.finalLoads, d.load(idx))
	}
	return tr
}

func FuzzReallocate(f *testing.F) {
	f.Add([]byte{3, 10, 200, 50, 8, 0, 0, 1, 3, 0, 1, 2, 7, 100, 4, 2, 0, 40, 0, 3})
	f.Add([]byte{2, 90, 90, 6, 0, 1, 80, 3, 3, 3, 1, 0, 2, 1, 7, 0, 3})
	f.Add([]byte{5, 5, 255, 120, 60, 30, 12, 8, 1, 200, 2, 31, 31, 1, 99, 0, 0, 1, 3, 3, 2, 4, 250})
	f.Add([]byte{1, 1, 4, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeScript(data)
		want := runScript(s, buildOracle)
		got := runScript(s, buildSolver)
		compareOracle(t, got, want, s)
	})
}

// compareExact requires two traces to be bit-identical; want is the
// reference run.
func compareExact(t *testing.T, label string, got, want *trace, s *script) {
	t.Helper()
	if got.end != want.end {
		t.Fatalf("makespan diverged: %s %v, reference %v", label, got.end, want.end)
	}
	if got.totalBytes != want.totalBytes || got.totalCount != want.totalCount {
		t.Fatalf("totals diverged: %s (%v, %d), reference (%v, %d)",
			label, got.totalBytes, got.totalCount, want.totalBytes, want.totalCount)
	}
	for i := range got.completions {
		if got.completions[i] != want.completions[i] {
			t.Fatalf("op %d completion diverged: %s %v, reference %v (script %+v)",
				i, label, got.completions[i], want.completions[i], s.ops[i])
		}
	}
	if len(got.probes) != len(want.probes) {
		t.Fatalf("probe count diverged: %d vs %d", len(got.probes), len(want.probes))
	}
	for i := range got.probes {
		if got.probes[i] != want.probes[i] {
			t.Fatalf("probe %d diverged: %s %v, reference %v", i, label, got.probes[i], want.probes[i])
		}
	}
	for i := range got.finalLoads {
		if got.finalLoads[i] != want.finalLoads[i] {
			t.Fatalf("final load of r%d diverged: %s %v, reference %v", i, label, got.finalLoads[i], want.finalLoads[i])
		}
	}
}

// timeClose is the per-timestamp tolerance: float-noise relative error
// from reordered arithmetic, plus the script's completion-window slack.
func timeClose(a, b, slack float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	return diff <= slack+1e-9*(1+scale)
}

// compareOracle is the solver's contract against the oracle: timestamps
// within tolerance, exact conservation (totals, completion coverage,
// drained final loads).
func compareOracle(t *testing.T, got, want *trace, s *script) {
	t.Helper()
	slack := s.timeSlack()
	if !timeClose(got.end, want.end, slack) {
		t.Fatalf("makespan diverged beyond slack %g: solver %v, oracle %v", slack, got.end, want.end)
	}
	if got.totalBytes != want.totalBytes || got.totalCount != want.totalCount {
		t.Fatalf("totals diverged: solver (%v, %d), oracle (%v, %d)",
			got.totalBytes, got.totalCount, want.totalBytes, want.totalCount)
	}
	for i := range got.completions {
		a, b := got.completions[i], want.completions[i]
		if (a < 0) != (b < 0) {
			t.Fatalf("op %d completed on one side only: solver %v, oracle %v", i, a, b)
		}
		if a >= 0 && !timeClose(a, b, slack) {
			t.Fatalf("op %d completion diverged beyond slack %g: solver %v, oracle %v (script %+v)",
				i, slack, a, b, s.ops[i])
		}
	}
	if len(got.probes) != len(want.probes) {
		t.Fatalf("probe count diverged: %d vs %d", len(got.probes), len(want.probes))
	}
	// Probed loads are only comparable when both sides carry the same
	// transfer population: a near-completionEps transfer can be resolved
	// on one side and still draining on the other at the probe's
	// timestamp, which shifts every rate in its component.
	stride := 1 + len(s.caps)
	for p := 0; p+stride <= len(got.probes); p += stride {
		if got.probes[p] != want.probes[p] {
			continue
		}
		for k := 1; k < stride; k++ {
			if !timeClose(got.probes[p+k], want.probes[p+k], 0) {
				t.Fatalf("probe %d load r%d diverged: solver %v, oracle %v",
					p/stride, k-1, got.probes[p+k], want.probes[p+k])
			}
		}
	}
	for i, ld := range got.finalLoads {
		if ld != 0 {
			t.Fatalf("solver left residual load %g on r%d after the run drained, want exactly 0", ld, i)
		}
	}
}

// FuzzInvariants is the oracle-free rail, cheap enough for a CI smoke:
// the same script space, run only on the solver, checking what must hold
// without reference to any other implementation — byte/transfer totals
// computed from the script, every transfer op completing no earlier than
// it started, a fully drained graph, and bit-identical determinism
// across two runs.
func FuzzInvariants(f *testing.F) {
	f.Add([]byte{3, 10, 200, 50, 8, 0, 0, 1, 3, 0, 1, 2, 7, 100, 4, 2, 0, 40, 0, 3})
	f.Add([]byte{2, 90, 90, 6, 0, 1, 80, 3, 3, 3, 1, 0, 2, 1, 7, 0, 3})
	f.Add([]byte{5, 5, 255, 120, 60, 30, 12, 8, 1, 200, 2, 31, 31, 1, 99, 0, 0, 1, 3, 3, 2, 4, 250})
	f.Add([]byte{1, 1, 4, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeScript(data)
		got := runScript(s, buildSolver)
		again := runScript(s, buildSolver)
		compareExact(t, "re-run", again, got, s)
		wantBytes, wantCount := s.expectedTotals()
		if got.totalBytes != wantBytes || got.totalCount != wantCount {
			t.Fatalf("totals diverged from script: solver (%v, %d), script (%v, %d)",
				got.totalBytes, got.totalCount, wantBytes, wantCount)
		}
		for i, op := range s.ops {
			if op.kind > 1 {
				continue
			}
			if got.completions[i] < op.at {
				t.Fatalf("op %d (start %v) completed at %v", i, op.at, got.completions[i])
			}
		}
		for i, ld := range got.finalLoads {
			if ld != 0 {
				t.Fatalf("residual load %g on r%d after the run drained", ld, i)
			}
		}
	})
}
