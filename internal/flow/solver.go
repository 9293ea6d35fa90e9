package flow

// solver owns the bipartite transfer↔resource graph and re-solves max-min
// fair rates incrementally. Each Resource keeps a persistent membership
// list of the active transfers crossing it; events (transfer start/finish,
// capacity change, timer drain) mark the resources they touch dirty, and
// solve recomputes only the connected component(s) of the graph reachable
// from the dirty set. Transfers outside that component keep their rates.
//
// Correctness of the restriction: water-filling decomposes over connected
// components — fixing a flow changes only the residuals and counts of the
// resources that flow crosses, so components evolve independently, and
// every share derives from a resource's own residual and count. The
// from-scratch pass kept as the oracle in the test tree is the reference:
// the solver matches it within the tolerance contract documented in
// fuzz_test.go (deferred same-timestamp solves and lazy integration
// reorder float accumulation, never the model).
//
// Progressive filling pops the bottleneck resource from a lazy min-heap
// keyed by residual/count rather than rescanning every component
// resource per round. The heap is lazy in the standard sense: during
// progressive filling a resource's fair share residual/count only rises
// as flows are fixed (fixing at share s <= residual/count implies the new
// share (residual-s)/(count-1) >= residual/count), so a stale heap entry
// is always stale-low. Popping the minimum entry and recomputing its
// current share is therefore sound: if the share rose, requeue it; if it
// is unchanged, every other entry's current share is at least its stored
// key — so this resource is a true bottleneck and its unfixed members are
// fixed at that share.
//
// All scratch (BFS queue, component flow list, bottleneck heap, dirty
// set) lives on the solver and is reused across events; visit marks are
// epoch counters on the graph nodes, so nothing is cleared or allocated
// in the steady state.
type solver struct {
	// epoch is the visit-mark generation; it advances once per solve and
	// never wraps in practice (int64 at one bump per simulation event).
	epoch int64

	// dirty lists resources touched since the last solve (deduplicated
	// via Resource.dirty).
	dirty []*Resource

	// Reusable scratch: BFS queue, component flows in discovery order,
	// bottleneck heap.
	queue []*Resource
	flows []*transfer
	bn    []bnEntry
}

// bnEntry is one resource's fair-share key in the bottleneck heap.
type bnEntry struct {
	share float64
	r     *Resource
}

// markDirty adds r to the dirty set for the next solve.
func (s *solver) markDirty(r *Resource) {
	if !r.dirty {
		r.dirty = true
		s.dirty = append(s.dirty, r)
	}
}

// solve recomputes max-min fair rates for every transfer connected to a
// dirty resource, integrating each one's progress up to now under its
// outgoing rate first, and leaves all other transfers (and their
// resources' committed loads) untouched. Flows are collected in a single
// pass that discovers, integrates and resets the affected subgraph, then
// rates come from heap-driven progressive filling. A sparse dirty set
// is chased by BFS over member lists, while a dense one — the usual
// case when a striped fan-out completes and its successor starts in the
// same instant — takes one contiguous sweep of the active list instead.
// Sweeping flows whose component is actually clean is harmless:
// progressive filling never mixes arithmetic across components (every
// share derives from a resource's own residual and count), so clean
// components re-solve to their previous rates bit-for-bit and the ETA
// re-key skip drops them untouched. It returns the affected flows so
// the caller can re-key their ETAs; the slice is solver scratch, valid
// only until the next solve.
func (s *solver) solve(now float64, active []*transfer) []*transfer {
	if len(s.dirty) == 0 {
		return nil
	}
	s.epoch++
	ep := s.epoch
	queue := s.queue[:0]
	flows := s.flows[:0]
	h := s.bn[:0]
	// Reset every dirty resource. The unfixed count starts at the full
	// membership — members holds exactly the active transfers crossing
	// the resource, all of them in the affected subgraph by definition —
	// so incidences need not be counted during the walk, and the fill
	// key residual/count is already final here: resources join the
	// bottleneck heap at discovery.
	m := 0
	for _, r := range s.dirty {
		r.dirty = false
		if r.visit != ep {
			r.visit = ep
			r.residual = r.capacity
			r.count = len(r.members)
			r.load = 0
			m += r.count
			queue = append(queue, r)
			if r.count > 0 {
				h = append(h, bnEntry{share: r.residual / float64(r.count), r: r})
			}
		}
	}
	s.dirty = s.dirty[:0]
	if m >= len(active) {
		// Dense sweep. No visit-marking of transfers: the active list
		// holds each exactly once.
		for _, t := range active {
			// Integrate under the outgoing rate before it is replaced.
			integrate(t, now)
			t.fixed = false
			t.prevRate = t.rate
			flows = append(flows, t)
			for _, r := range t.resources {
				if r.visit != ep {
					r.visit = ep
					r.residual = r.capacity
					r.count = len(r.members)
					r.load = 0
					h = append(h, bnEntry{share: r.residual / float64(r.count), r: r})
				}
			}
		}
	} else {
		for i := 0; i < len(queue); i++ {
			for _, t := range queue[i].members {
				if t.visit == ep {
					continue
				}
				t.visit = ep
				// Integrate under the outgoing rate before it is replaced.
				integrate(t, now)
				t.fixed = false
				t.prevRate = t.rate
				flows = append(flows, t)
				for _, r := range t.resources {
					if r.visit != ep {
						r.visit = ep
						r.residual = r.capacity
						r.count = len(r.members)
						r.load = 0
						queue = append(queue, r)
						h = append(h, bnEntry{share: r.residual / float64(r.count), r: r})
					}
				}
			}
		}
	}
	unfixed := len(flows)
	if unfixed == 1 && len(h) > 0 {
		// Low-fan-out gate: a single-flow component — an isolated write,
		// a staggered first arrival — needs no bottleneck heap. The heap
		// would heapify every entry, pop the minimum and fix the flow at
		// cur = residual/count recomputed from untouched values, i.e. at
		// exactly the minimum share key; a direct min scan performs the
		// same division on the same operands, so the rate is bit-identical
		// (on ties the popped entry could differ, the share value cannot).
		t := flows[0]
		cur := h[0].share
		for _, e := range h[1:] {
			if e.share < cur {
				cur = e.share
			}
		}
		if cur < 0 {
			cur = 0
		}
		t.rate = cur
		t.fixed = true
		for _, rr := range t.resources {
			rr.residual -= cur
			if rr.residual < 0 {
				rr.residual = 0
			}
			rr.count--
			rr.load += cur
		}
		s.bn = h[:0]
		s.queue = queue[:0]
		s.flows = flows
		return flows
	}
	// Entries were appended unordered; Floyd-heapify bottom-up in O(n).
	for i := len(h)/2 - 1; i >= 0; i-- {
		bnDown(h, i)
	}
	for unfixed > 0 {
		if len(h) == 0 {
			panic("flow: unfixed transfers with no remaining resources")
		}
		e := h[0]
		h = bnPop(h)
		r := e.r
		if r.count <= 0 {
			continue
		}
		cur := r.residual / float64(r.count)
		if cur > e.share {
			// Stale-low entry: shares only rise as flows are fixed.
			h = bnPush(h, bnEntry{share: cur, r: r})
			continue
		}
		if cur < 0 {
			cur = 0
		}
		for _, t := range r.members {
			if t.fixed {
				continue
			}
			t.rate = cur
			t.fixed = true
			unfixed--
			for _, rr := range t.resources {
				rr.residual -= cur
				if rr.residual < 0 {
					rr.residual = 0
				}
				rr.count--
				rr.load += cur
			}
		}
	}
	s.bn = h[:0]
	s.queue = queue[:0]
	s.flows = flows
	return flows
}

// Bottleneck min-heap (keyed by share), lazy: a resource may appear
// more than once, with stale-low keys resolved at pop time.

func bnPush(h []bnEntry, e bnEntry) []bnEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].share <= h[i].share {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func bnPop(h []bnEntry) []bnEntry {
	last := len(h) - 1
	h[0] = h[last]
	h[last] = bnEntry{}
	h = h[:last]
	bnDown(h, 0)
	return h
}

func bnDown(h []bnEntry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].share < h[l].share {
			m = r
		}
		if h[i].share <= h[m].share {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
