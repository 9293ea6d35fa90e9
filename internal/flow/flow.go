// Package flow implements max-min fair sharing of capacity resources
// among concurrent bulk transfers, integrated with the sim engine.
//
// A Transfer moves a number of bytes across a set of Resources (for
// example: source disk read, source NIC out, destination NIC in,
// destination disk write). At any instant each active transfer receives a
// rate determined by progressive filling (water-filling): the most
// contended resource is saturated first, its flows are fixed at their fair
// share, and the algorithm recurses on the remaining capacity. This is the
// standard fluid approximation for TCP fair share and for disk bandwidth
// sharing, and it is what makes "N clients hammering one NFS server" come
// out N times slower, automatically.
//
// Rates are recomputed whenever a transfer starts or finishes or a
// capacity changes, so rates are piecewise constant and completions are
// exact. The recomputation is incremental and coalesced: the network
// maintains an explicit transfer↔resource graph (see solver), events only
// mark the resources they touch dirty, and one deferred flush per
// simulated timestamp re-solves the connected component(s) reachable from
// the dirty set. Progress is integrated lazily, per transfer, and the next
// completion comes from a min-heap of per-transfer ETAs, so the per-event
// cost follows the contended neighbourhood instead of the whole active
// set. Transfer and Pending records, private rate-cap resources
// (AcquireCap) and the per-event scratch all recycle through free lists,
// so steady-state transfer churn performs no allocations.
//
// Fan-out I/O (one logical operation striping over many servers) should
// register its shards through a Batch: all shards join the graph under a
// single reallocation and complete through one shared handle, instead of
// paying one full solve per shard.
package flow

import (
	"ec2wfsim/internal/sim"
)

// completionEps is the residual byte count below which a transfer is
// considered complete. It absorbs float64 rounding in rate integration:
// for a terabyte-scale transfer the residue of remaining - rate*dt is on
// the order of 1e-4 bytes, so half a byte is both physically meaningless
// and numerically safe. (A smaller epsilon can livelock: the rescheduled
// completion delta underflows the clock's ULP and time stops advancing.)
const completionEps = 0.5

// Resource is a capacity (bytes/second) shared by transfers. Resources are
// created once (per NIC, per disk channel, ...) and passed to Transfer.
type Resource struct {
	name     string
	capacity float64

	// Solver scratch (epoch-guarded, see solver.solve) and the current
	// committed allocation. Kept adjacent to capacity so the whole set
	// the water-filling inner loop touches shares a cache line.
	residual float64
	count    int
	load     float64 // committed allocation, for utilization queries
	visit    int64
	dirty    bool

	// pooledCap marks resources minted by AcquireCap; pooled reports
	// one currently sitting in the free list. ReleaseCap uses them to
	// reject shared infrastructure resources and double releases, which
	// would otherwise silently corrupt the cap pool.
	pooledCap bool
	pooled    bool

	// members lists the active transfers crossing this resource — one
	// side of the solver's bipartite graph. It is maintained
	// incrementally by attach/detach; its order carries no meaning.
	members []*transfer
}

// NewResource returns a resource with the given capacity in bytes/second.
// Capacity must be positive: a zero-capacity resource would block forever.
func NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(badArg("NewResource", "capacity", "resource %q with non-positive capacity %g", name, capacity))
	}
	// Membership lists churn constantly on hot resources; starting with
	// room for a few members skips the first rounds of regrowth.
	return &Resource{name: name, capacity: capacity, members: make([]*transfer, 0, 8)}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured capacity in bytes/second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Load returns the rate currently allocated across this resource.
func (r *Resource) Load() float64 { return r.load }

// Utilization returns Load/Capacity in [0,1].
func (r *Resource) Utilization() float64 { return r.load / r.capacity }

// transfer is one in-flight bulk movement — a node of the solver's graph.
// Records are recycled through the network's free list once complete.
type transfer struct {
	pending   *Pending
	remaining float64
	rate      float64
	resources []*Resource // deduplicated, in caller order; owned, reused
	fixed     bool
	visit     int64
	id        int64

	// Lazy-integration timestamp, the rate of the previous solve (to
	// skip re-keying ETAs that are still exact), position in the ETA
	// heap (-1 when absent) and in the active list (for swap-removal).
	last      float64
	prevRate  float64
	etaPos    int
	activeIdx int
}

// Pending is a handle to one or more asynchronous transfers started with
// StartTransfer or a Batch. Multiple processes may Wait on it; they all
// resume when every attached transfer completes.
type Pending struct {
	refs    int // attached transfers still in flight
	done    bool
	waiters []*sim.Proc
}

// Done reports whether every attached transfer has completed.
func (pd *Pending) Done() bool { return pd.done }

// Wait blocks p until the transfer completes.
func (pd *Pending) Wait(p *sim.Proc) {
	if pd.done {
		return
	}
	pd.waiters = append(pd.waiters, p)
	p.Suspend()
}

// complete records one attached transfer finishing; the handle resolves
// (and its waiters resume) when the last one does.
func (pd *Pending) complete() {
	pd.refs--
	if pd.refs > 0 {
		return
	}
	pd.done = true
	for i, p := range pd.waiters {
		p.Resume()
		pd.waiters[i] = nil
	}
	pd.waiters = pd.waiters[:0]
}

// Net manages the set of active transfers over a shared resource pool.
type Net struct {
	e      *sim.Engine
	active []*transfer // unordered; transfer.activeIdx indexes it
	nextID int64
	sol    solver

	// Completion timer and the zero-delay flush timer that coalesces all
	// events on one timestamp into a single solve.
	timer      *sim.ReTimer
	flushTimer *sim.ReTimer
	flushArmed bool
	etaHeap    []etaEntry
	timerArmed bool    // completion timer is pending
	timerAt    float64 // ... for this instant, when timerArmed

	// Free lists: steady-state churn recycles transfer and Pending
	// records, batches, private rate caps and the onTimer scratch, so
	// the hot path performs no allocations.
	freeTransfers []*transfer
	tBlock        []transfer // bump region; getTransfer carves when the free list is dry
	freePendings  []*Pending
	freeBatches   []*Batch
	freeCaps      []*Resource
	doneScratch   []*transfer
	capScratch    []*Resource

	// Stats.
	TotalBytes     float64
	TotalTransfers int64
}

// etaEntry is one transfer's completion instant in the ETA heap.
type etaEntry struct {
	at float64
	t  *transfer
}

// NewNet returns an empty transfer network bound to the engine.
func NewNet(e *sim.Engine) *Net {
	n := &Net{e: e}
	n.timer = e.NewReTimer(n.onTimer)
	n.flushTimer = e.NewReTimer(n.onFlush)
	// Seed the hot-path slices with room for a mid-sized component.
	// Growing them organically costs a log-series of allocations per
	// Net, and on short-lived networks (one per swept cell) that
	// regrowth dominates the allocation profile.
	n.active = make([]*transfer, 0, 64)
	n.etaHeap = make([]etaEntry, 0, 64)
	n.freeTransfers = make([]*transfer, 0, 64)
	n.doneScratch = make([]*transfer, 0, 32)
	n.sol.dirty = make([]*Resource, 0, 64)
	n.sol.queue = make([]*Resource, 0, 64)
	n.sol.flows = make([]*transfer, 0, 64)
	n.sol.bn = make([]bnEntry, 0, 64)
	return n
}

// NewNetVersion returns NewNet(e) for version 0 and panics with
// *ArgumentError for any other version.
//
// Deprecated: the flow package has a single solver; call NewNet. This
// name remains only because perfbench's composed runs still call it
// with a zero version.
func NewNetVersion(e *sim.Engine, version int) *Net {
	if version != 0 {
		panic(badArg("NewNetVersion", "version", "unknown flow solver version %d (only 0 remains)", version))
	}
	return NewNet(e)
}

// Active returns the number of in-flight transfers.
func (n *Net) Active() int { return len(n.active) }

// Sync forces any reallocation deferred by same-timestamp coalescing to
// run now, so that Load and Utilization report the rates in effect at
// the current simulated time. It is a no-op when nothing is pending.
func (n *Net) Sync() {
	if !n.flushArmed {
		return
	}
	n.flushTimer.Stop()
	n.flushArmed = false
	n.flush()
}

// SetResourceCapacity changes a resource's capacity and reallocates
// rates at the current timestamp. It is used to model disk
// initialization (the first-write penalty disappearing) mid-simulation.
func (n *Net) SetResourceCapacity(r *Resource, capacity float64) {
	if capacity <= 0 {
		panic(badArg("SetResourceCapacity", "capacity", "setting non-positive capacity %g on %q", capacity, r.name))
	}
	r.capacity = capacity
	if len(r.members) == 0 {
		// An idle resource is skipped by the solver (which only visits
		// resources of active flows), so a load left over from earlier
		// traffic would survive the capacity change and Utilization()
		// could report nonsense (> 1) on a drained resource.
		r.load = 0
	}
	n.sol.markDirty(r)
	n.requestFlush()
}

// Transfer moves size bytes across the given resources, blocking p until
// the transfer completes. A transfer of zero size returns immediately; a
// negative size or an empty resource list panics with *ArgumentError.
func (n *Net) Transfer(p *sim.Proc, size float64, resources ...*Resource) {
	if size == 0 {
		return
	}
	validateTransferArgs("Transfer", size, resources)
	pd := n.start(size, resources)
	pd.Wait(p)
	n.releasePending(pd)
}

// StartTransfer begins moving size bytes across the given resources
// without blocking, returning a handle the caller (or several callers) can
// Wait on. For fan-out I/O that starts many shards at once, prefer a
// Batch: it registers every shard under a single reallocation.
func (n *Net) StartTransfer(size float64, resources ...*Resource) *Pending {
	if size == 0 {
		pd := n.getPending()
		pd.done = true
		return pd
	}
	validateTransferArgs("StartTransfer", size, resources)
	return n.start(size, resources)
}

// start registers one validated transfer and marks it for the
// coalesced solve at this timestamp.
func (n *Net) start(size float64, resources []*Resource) *Pending {
	pd := n.getPending()
	n.attach(n.stage(pd, size, resources))
	n.requestFlush()
	return pd
}

// stage builds a transfer record (deduplicating its resource list so a
// transfer that lists the same resource twice does not double-count
// itself during water-filling) and accounts it, without touching the
// graph yet.
func (n *Net) stage(pd *Pending, size float64, resources []*Resource) *transfer {
	t := n.getTransfer()
	for _, r := range resources {
		seen := false
		for _, u := range t.resources {
			if u == r {
				seen = true
				break
			}
		}
		if !seen {
			t.resources = append(t.resources, r)
		}
	}
	n.nextID++
	t.id = n.nextID
	t.pending = pd
	t.remaining = size
	t.last = n.e.Now()
	pd.refs++
	n.TotalBytes += size
	n.TotalTransfers++
	return t
}

// attach inserts t into the graph: the active list and every crossed
// resource's membership list, marking the touched resources dirty for
// the next solve.
func (n *Net) attach(t *transfer) {
	n.active = append(n.active, t)
	t.activeIdx = len(n.active) - 1
	for _, r := range t.resources {
		r.members = append(r.members, t)
		n.sol.markDirty(r)
	}
}

// detach removes a completed transfer from the graph: it swap-removes t
// from the active list and from every crossed resource's membership
// list (the solver collects component flows in discovery order, so
// member order carries no meaning), clears those resources' committed
// loads (the solver recomputes the ones that still carry traffic) and
// marks them dirty.
func (n *Net) detach(t *transfer) {
	for _, r := range t.resources {
		ms := r.members
		for i, m := range ms {
			if m == t {
				last := len(ms) - 1
				ms[i] = ms[last]
				ms[last] = nil
				r.members = ms[:last]
				break
			}
		}
		r.load = 0
		n.sol.markDirty(r)
	}
	i := t.activeIdx
	last := len(n.active) - 1
	n.active[i] = n.active[last]
	n.active[i].activeIdx = i
	n.active[last] = nil
	n.active = n.active[:last]
}

// TransferCapped is Transfer with a per-flow rate ceiling, modeled as a
// pooled private resource (e.g. a single S3 connection cannot exceed
// ~25 MB/s regardless of NIC headroom).
func (n *Net) TransferCapped(p *sim.Proc, size, maxRate float64, resources ...*Resource) {
	if size == 0 {
		return
	}
	if size < 0 {
		panic(badArg("TransferCapped", "size", "negative transfer size %g", size))
	}
	if maxRate <= 0 {
		// Validate here rather than at cap construction: the bug is in
		// the caller's rate, so name the caller.
		panic(badArg("TransferCapped", "maxRate", "non-positive max rate %g", maxRate))
	}
	cap := n.AcquireCap("flowcap", maxRate)
	// The scratch is only live until start() copies it into the transfer
	// record, before p parks, so concurrent TransferCapped calls from
	// other processes cannot clobber an in-use view.
	n.capScratch = append(n.capScratch[:0], cap)
	n.capScratch = append(n.capScratch, resources...)
	n.Transfer(p, size, n.capScratch...)
	n.ReleaseCap(cap)
}

// AcquireCap returns a private rate-limit resource from the network's
// pool — the graph-API way to model per-connection or per-request-window
// ceilings (one S3 connection, a PVFS client's request window) without
// allocating a Resource per operation. Return it with ReleaseCap once the
// transfers crossing it have completed.
func (n *Net) AcquireCap(name string, rate float64) *Resource {
	if rate <= 0 {
		panic(badArg("AcquireCap", "rate", "non-positive cap rate %g", rate))
	}
	if k := len(n.freeCaps); k > 0 {
		r := n.freeCaps[k-1]
		n.freeCaps[k-1] = nil
		n.freeCaps = n.freeCaps[:k-1]
		r.name = name
		r.capacity = rate
		r.pooled = false
		return r
	}
	r := NewResource(name, rate)
	r.pooledCap = true
	return r
}

// ReleaseCap returns an AcquireCap resource to the pool. The cap must be
// idle (all transfers crossing it completed) and must not be used again.
func (n *Net) ReleaseCap(r *Resource) {
	if !r.pooledCap {
		panic("flow: ReleaseCap of resource " + r.name + " that AcquireCap did not mint")
	}
	if r.pooled {
		panic("flow: double ReleaseCap of resource " + r.name)
	}
	if len(r.members) > 0 {
		panic("flow: ReleaseCap of resource " + r.name + " with active transfers")
	}
	r.pooled = true
	n.freeCaps = append(n.freeCaps, r)
}

// requestFlush arms the zero-delay flush timer (once per timestamp).
// Every mutation path marks resources dirty and calls this, so a
// pending dirty set always implies an armed flush.
func (n *Net) requestFlush() {
	if !n.flushArmed {
		n.flushArmed = true
		n.flushTimer.Arm(0)
	}
}

func (n *Net) onFlush() {
	n.flushArmed = false
	n.flush()
}

// flush re-solves the component(s) reachable from the dirty set and
// re-keys the completion ETA of every flow whose rate changed.
//
// A transfer's completion instant is invariant under solves that leave
// its rate untouched: progress is linear, so now + remaining/rate is the
// same instant the previous solve computed (bit-identical inputs give
// bit-identical shares, so the comparison is exact, not a tolerance).
// Only flows whose rate actually changed re-key their heap entry; on the
// symmetric striped shapes that dominate the benchmarks, that is a
// handful out of hundreds.
func (n *Net) flush() {
	now := n.e.Now()
	for _, t := range n.sol.solve(now, n.active) {
		if t.rate == t.prevRate && t.etaPos >= 0 {
			// Same rate, linear progress: the completion instant this
			// entry already holds is still exact.
			continue
		}
		n.rescheduleETA(t, now)
	}
	n.armNext()
}

// rescheduleETA places t's single heap entry at its completion instant:
// due now if within completionEps of done, at the rate-projected instant
// otherwise, and absent while starved (a starved flow gets a new ETA
// when a later event re-solves its component).
func (n *Net) rescheduleETA(t *transfer, now float64) {
	switch {
	case t.remaining <= completionEps:
		n.etaSet(t, now)
	case t.rate > 0:
		n.etaSet(t, now+t.remaining/t.rate)
	default:
		n.etaRemove(t)
	}
}

// armNext arms the completion timer for the earliest ETA, skipping the
// engine round-trip when a pending timer already points at that instant.
// With active transfers, no ETA and no pending flush, every transfer is
// starved: resources were overcommitted by construction, which is a bug.
func (n *Net) armNext() {
	if len(n.etaHeap) == 0 {
		if n.timerArmed {
			n.timerArmed = false
			n.timer.Stop()
		}
		if len(n.active) > 0 && !n.flushArmed {
			panic("flow: all active transfers starved")
		}
		return
	}
	at := n.etaHeap[0].at
	if n.timerArmed && n.timerAt == at {
		return
	}
	n.timer.Stop()
	d := at - n.e.Now()
	if d < 0 {
		d = 0
	}
	n.timerArmed = true
	n.timerAt = at
	n.timer.Arm(d)
}

// onTimer drains every ETA due at the current time: completed
// transfers leave the graph and resolve their handles, near-misses (the
// entry was placed under a since-lowered remaining estimate) re-key to
// their true instant. Departures dirty their resources, so a flush
// follows at this same timestamp — coalesced with whatever the resumed
// waiters start next.
func (n *Net) onTimer() {
	n.timerArmed = false // it just fired
	now := n.e.Now()
	done := n.doneScratch[:0]
	for len(n.etaHeap) > 0 && n.etaHeap[0].at <= now {
		t := n.etaHeap[0].t
		integrate(t, now)
		if t.remaining > completionEps {
			n.rescheduleETA(t, now)
			continue
		}
		n.etaRemove(t)
		n.detach(t)
		done = append(done, t)
	}
	for _, t := range done {
		t.pending.complete()
	}
	if len(n.sol.dirty) > 0 {
		n.requestFlush()
	}
	n.armNext()
	for _, t := range done {
		n.recycleTransfer(t)
	}
	n.doneScratch = done[:0]
}

// integrate applies t's current rate over the window since its last
// integration. Rates are piecewise constant between solves of t's
// component, so integrating lazily at the next touch is exact.
func integrate(t *transfer, now float64) {
	if dt := now - t.last; dt > 0 {
		t.remaining -= t.rate * dt
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	t.last = now
}

// Indexed ETA min-heap (keyed by at): at most one entry per transfer,
// whose position lives on the record (transfer.etaPos, -1 when absent),
// so a rate change re-keys in place instead of abandoning stale entries.
// Hand-rolled to keep the hot path free of interface boxing.

// etaSet inserts or re-keys t's entry at time at.
func (n *Net) etaSet(t *transfer, at float64) {
	if t.etaPos < 0 {
		t.etaPos = len(n.etaHeap)
		n.etaHeap = append(n.etaHeap, etaEntry{at: at, t: t})
		n.etaUp(t.etaPos)
		return
	}
	n.etaHeap[t.etaPos].at = at
	n.etaDown(n.etaUp(t.etaPos))
}

// etaRemove deletes t's entry, if any.
func (n *Net) etaRemove(t *transfer) {
	i := t.etaPos
	if i < 0 {
		return
	}
	t.etaPos = -1
	h := n.etaHeap
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].t.etaPos = i
	}
	h[last] = etaEntry{}
	n.etaHeap = h[:last]
	if i != last {
		n.etaDown(n.etaUp(i))
	}
}

// etaUp sifts the entry at i toward the root, returning its final index.
func (n *Net) etaUp(i int) int {
	h := n.etaHeap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		h[p].t.etaPos = p
		h[i].t.etaPos = i
		i = p
	}
	return i
}

// etaDown sifts the entry at i toward the leaves.
func (n *Net) etaDown(i int) {
	h := n.etaHeap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			return
		}
		h[i], h[m] = h[m], h[i]
		h[i].t.etaPos = i
		h[m].t.etaPos = m
		i = m
	}
}

// Free-list plumbing. Records are zeroed on recycle, not on reuse, so a
// freshly popped record is always clean.

func (n *Net) getTransfer() *transfer {
	if k := len(n.freeTransfers); k > 0 {
		t := n.freeTransfers[k-1]
		n.freeTransfers[k-1] = nil
		n.freeTransfers = n.freeTransfers[:k-1]
		return t
	}
	// Carve fresh records from a block so concurrently active transfers
	// sit contiguously (the solver walks them constantly) and each comes
	// with a pre-carved resource slice sized for the common fan-in.
	if len(n.tBlock) == 0 {
		block := make([]transfer, 32)
		res := make([]*Resource, 32*4)
		for i := range block {
			block[i].etaPos = -1
			block[i].resources = res[i*4 : i*4 : (i+1)*4]
		}
		n.tBlock = block
	}
	t := &n.tBlock[0]
	n.tBlock = n.tBlock[1:]
	return t
}

func (n *Net) recycleTransfer(t *transfer) {
	t.pending = nil
	t.remaining = 0
	t.rate = 0
	t.fixed = false
	t.last = 0
	t.prevRate = 0
	t.etaPos = -1 // onTimer removes the heap entry before recycling
	t.activeIdx = 0
	for i := range t.resources {
		t.resources[i] = nil
	}
	t.resources = t.resources[:0]
	n.freeTransfers = append(n.freeTransfers, t)
}

func (n *Net) getPending() *Pending {
	if k := len(n.freePendings); k > 0 {
		pd := n.freePendings[k-1]
		n.freePendings[k-1] = nil
		n.freePendings = n.freePendings[:k-1]
		return pd
	}
	return &Pending{}
}

// releasePending recycles a resolved handle. Only call sites that own the
// handle exclusively (Transfer, Batch.Run) release; handles escaping via
// StartTransfer are left to the garbage collector, so an external holder
// can never observe a recycled Pending.
func (n *Net) releasePending(pd *Pending) {
	if !pd.done {
		panic("flow: releasing incomplete Pending")
	}
	pd.done = false
	pd.refs = 0
	n.freePendings = append(n.freePendings, pd)
}
