package flow

import (
	"testing"

	"ec2wfsim/internal/sim"
)

// Metamorphic properties of the solver: transformations of a scenario
// that must not change what it computes. Unlike the differential fuzzer
// (which compares implementations on one input), these compare one
// implementation against itself on equivalent inputs — they hold even
// where no oracle run exists.
//
//   - Registration-order permutation: max-min fair shares are a function
//     of the transfer graph, not of the order transfers or resources were
//     registered. Permuting registration reorders the fill arithmetic, so
//     timestamps agree within float tolerance; conserved quantities
//     (totals, drained final loads) agree exactly.
//   - Capacity-change splitting: setting a resource's capacity through an
//     intermediate value and then to its final value within one process
//     turn is indistinguishable from setting the final value once — no
//     simulated time passes in between, so no bytes flow under the
//     intermediate rate. This must hold bit-for-bit: the solver
//     coalesces the two updates into one flush.

// permResult is the observable outcome of one permuted run.
type permResult struct {
	end        float64
	totalBytes float64
	totalCount int64
	finalLoads []float64
}

// runPermuted runs a fixed striped-read workload with both the resource
// registration order and each batch's shard order permuted by perm.
// perm[i] gives the registration slot of logical resource i; shard k of
// each read is staged k'th where perm rotates the batch order. The
// logical topology — which transfers cross which resources — is
// identical for every perm.
func runPermuted(perm []int) permResult {
	const (
		nServers = 4
		nClients = 3
		nReads   = 2
		fileSize = 48e6
		winRate  = 30e6
	)
	nRes := 2*nServers + nClients
	logicalCaps := make([]float64, nRes)
	for i := 0; i < nServers; i++ {
		logicalCaps[i] = 110e6          // server disk
		logicalCaps[nServers+i] = 400e6 // server NIC
	}
	for c := 0; c < nClients; c++ {
		logicalCaps[2*nServers+c] = 400e6 // client NIC
	}
	// Register resources in permuted order; slot[i] is logical resource
	// i's position in the driver's table.
	slot := make([]int, nRes)
	caps := make([]float64, nRes)
	for logical, s := range perm {
		slot[logical] = s
		caps[s] = logicalCaps[logical]
	}
	e := sim.NewEngine()
	d := newRealDriver(e, caps)
	for c := 0; c < nClients; c++ {
		c := c
		shards := make([][]int, nServers)
		for j := 0; j < nServers; j++ {
			// Rotate shard staging order by the permutation's first
			// element so batches also join in a different order.
			jj := (j + perm[0]) % nServers
			shards[j] = []int{slot[jj], slot[nServers+jj], slot[2*nServers+c]}
		}
		e.Go("client", func(p *sim.Proc) {
			p.Sleep(0.03 * float64(c))
			for k := 0; k < nReads; k++ {
				d.fanout(p, fileSize/nServers, shards, winRate)
			}
		})
	}
	e.Run()
	res := permResult{end: e.Now()}
	res.totalBytes, res.totalCount = d.totals()
	res.finalLoads = make([]float64, nRes)
	for logical := 0; logical < nRes; logical++ {
		res.finalLoads[logical] = d.rs[slot[logical]].Load()
	}
	return res
}

// TestPermutationInvariance checks that permuting registration order
// changes nothing observable beyond float noise.
func TestPermutationInvariance(t *testing.T) {
	t.Parallel()
	const nRes = 2*4 + 3
	identity := make([]int, nRes)
	reversed := make([]int, nRes)
	rotated := make([]int, nRes)
	for i := 0; i < nRes; i++ {
		identity[i] = i
		reversed[i] = nRes - 1 - i
		rotated[i] = (i + 5) % nRes
	}
	// Slack mirrors the fuzzer's per-script completion-window bound:
	// each completion can land completionEps of bytes early, and those
	// bytes drain at no less than the slowest capacity in the graph.
	const slack = 4 * completionEps * (3 * 2 * 4) / 30e6
	t.Run(solverSubtest, func(t *testing.T) {
		base := runPermuted(identity)
		for name, perm := range map[string][]int{"reversed": reversed, "rotated": rotated} {
			got := runPermuted(perm)
			if !timeClose(got.end, base.end, slack) {
				t.Errorf("%s: makespan diverged beyond tolerance: %v vs identity %v", name, got.end, base.end)
			}
			if got.totalBytes != base.totalBytes || got.totalCount != base.totalCount {
				t.Errorf("%s: totals diverged: (%v, %d) vs identity (%v, %d)",
					name, got.totalBytes, got.totalCount, base.totalBytes, base.totalCount)
			}
			for i, ld := range got.finalLoads {
				if ld != 0 {
					t.Errorf("%s: residual load %g on logical resource %d after drain", name, ld, i)
				}
			}
		}
	})
}

// runSplitCapacity runs two long transfers through a shared link whose
// capacity is changed at t=1: in one step when mids is empty, or through
// the given intermediate values first — all within the same process
// turn, so no simulated time separates the steps.
func runSplitCapacity(mids []float64) *trace {
	e := sim.NewEngine()
	d := newRealDriver(e, []float64{100e6, 80e6, 80e6})
	tr := &trace{completions: make([]float64, 2)}
	for i := 0; i < 2; i++ {
		i := i
		e.Go("t", func(p *sim.Proc) {
			d.transfer(p, 300e6, []int{0, 1 + i})
			tr.completions[i] = p.Now()
		})
	}
	e.At(1, func() {
		for _, m := range mids {
			d.setCapacity(0, m)
		}
		d.setCapacity(0, 40e6)
	})
	e.Run()
	tr.end = e.Now()
	tr.totalBytes, tr.totalCount = d.totals()
	for idx := 0; idx < 3; idx++ {
		tr.finalLoads = append(tr.finalLoads, d.load(idx))
	}
	return tr
}

// TestCapacityChangeSplittingInvariance checks that splitting a
// same-instant capacity change through intermediate values is
// bit-identical to applying the final value directly.
func TestCapacityChangeSplittingInvariance(t *testing.T) {
	t.Parallel()
	t.Run(solverSubtest, func(t *testing.T) {
		direct := runSplitCapacity(nil)
		split := runSplitCapacity([]float64{90e6, 10e6})
		compareExact(t, "split", split, direct, &script{ops: make([]scriptOp, 2)})
	})
}
