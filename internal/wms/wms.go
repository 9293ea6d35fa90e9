// Package wms models the workflow management stack the paper runs:
// Pegasus plans the workflow, DAGMan releases tasks as their dependencies
// complete, and Condor matches released jobs to idle worker slots. The
// scheduler is locality-blind FIFO, as the paper notes ("the scheduler ...
// does not consider data locality or parent-child affinity"); a
// data-aware variant is provided for the paper's future-work ablation.
package wms

import (
	"fmt"
	"math"

	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/outage"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/units"
	"ec2wfsim/internal/workflow"
)

// Default overheads for the Condor/DAGMan stack, calibrated to the
// per-job costs observed with Condor 7.x glide-ins: a submit throttle in
// DAGMan and a match/claim/activate delay before the job's executable
// starts on the slot.
const (
	DefaultSubmitDelay  = 0.010
	DefaultStartLatency = 0.40

	// DefaultMaxRetries is DAGMan's RETRY default, applied when
	// Options.MaxRetries is zero and failures are injected.
	DefaultMaxRetries = 3
	// DefaultFailureSeed seeds the injection RNG when Options.FailureSeed
	// is zero, keeping failure runs deterministic by default.
	DefaultFailureSeed = 0xFA11

	// DefaultOutageDuration is the mean outage length (seconds) when
	// Options.OutageRate is set without a duration: roughly an EC2
	// instance reboot-and-recontextualize cycle.
	DefaultOutageDuration = 120.0
	// DefaultOutageSeed seeds the outage schedule when Options.OutageSeed
	// is zero, keeping outage runs deterministic by default.
	DefaultOutageSeed = 0xDEAD

	// defaultCheckpointBytes sizes a checkpoint when the task declares no
	// peak memory (a checkpoint dumps the task's resident state).
	defaultCheckpointBytes = 64 * units.MB
)

// Options configures one workflow execution.
type Options struct {
	Cluster *cluster.Cluster
	Storage storage.System

	// DataAware enables the locality-aware scheduler ablation (A-2):
	// idle slots prefer ready jobs whose inputs live on their node.
	DataAware bool

	// EnforceMemory gates task start on resident-memory availability,
	// the mechanism that makes Broadband memory-limited. On by default
	// via Run; set SkipMemoryLimit to disable (ablation).
	SkipMemoryLimit bool

	// SubmitDelay and StartLatency override the stack overheads when
	// non-zero.
	SubmitDelay  float64
	StartLatency float64

	// FailureRate injects transient task failures with the given
	// per-attempt probability (spot hiccups, OOM kills, flaky NFS
	// mounts). A failed attempt burns a random fraction of the task's
	// runtime, then DAGMan re-queues it, exactly as Condor/DAGMan retry
	// semantics work. Zero (the default, and the paper's setting)
	// disables injection.
	FailureRate float64
	// MaxRetries bounds re-executions per task when FailureRate > 0
	// (DAGMan's RETRY). Zero means the DAGMan default of 3.
	MaxRetries int
	// FailureSeed makes injection deterministic; zero uses a fixed seed.
	FailureSeed uint64

	// OutageRate injects correlated node outages at the given expected
	// rate per node per hour: the whole node drops offline (spot
	// reclamation, hardware retirement), its in-flight attempts are
	// killed and re-queued, its slots stop requesting work, and data it
	// owns is unreadable until it recovers. Zero disables outages.
	OutageRate float64
	// OutageDuration is the mean outage length in seconds; zero means
	// DefaultOutageDuration. Only meaningful when OutageRate > 0.
	OutageDuration float64
	// OutageSeed makes the outage schedule deterministic; zero uses a
	// fixed seed.
	OutageSeed uint64

	// CheckpointInterval makes tasks write a checkpoint (sized by their
	// peak memory) through the storage system every interval seconds of
	// computation, and lets a re-queued attempt resume from its last
	// checkpoint instead of from zero. Checkpoint traffic competes for
	// the same storage bandwidth the workflow's own I/O uses. Zero (the
	// paper's setting) disables checkpointing.
	CheckpointInterval float64

	// Recorder, when non-nil, receives the run's structured event stream
	// (task attempts, transfers, outages, checkpoints, node state) as it
	// executes. The run builds every event either way and folds it into
	// the Result's spans and counters; the Recorder only sees the same
	// values afterwards, so recorded and unrecorded runs take one path
	// and produce identical Results.
	Recorder eventlog.Recorder
}

// Span records one task attempt for traces and utilization analysis.
// Failed attempts are recorded too (the slot was occupied either way);
// WriteEnd is then the abort time and Failed is set, so Gantt charts and
// trace exports show retried work instead of silently dropping it.
type Span struct {
	Task     *workflow.Task
	Node     string
	Start    float64 // slot picked the job up
	Exec     float64 // inputs staged, computation began
	WriteEnd float64 // outputs published (task complete), or abort time
	Failed   bool    // attempt was killed by failure injection or an outage
}

// Counters are one run's event counts. Every field but MemoryWaits is a
// fold of the run's event stream (see execution.emit). The JSON names
// are the result-cache row's field names.
type Counters struct {
	// MemoryWaits counts jobs that had to wait for memory admission.
	MemoryWaits int64 `json:"memory_waits"`
	// Failures counts injected task failures that were retried.
	Failures int64 `json:"failures"`
	// Retries counts re-executions (injected failures plus outage kills).
	Retries int64 `json:"retries"`
	// Outages counts node outages that began before the workflow
	// completed; OutageKills counts task attempts they killed.
	Outages     int64 `json:"outages"`
	OutageKills int64 `json:"outage_kills"`
	// LostWorkSeconds sums slot time burned by failed attempts that no
	// checkpoint preserved (occupied-slot seconds minus durable progress).
	LostWorkSeconds float64 `json:"lost_work_s"`
	// Checkpoints and CheckpointBytes count checkpoint writes and their
	// staged bytes (restore reads are not included in the byte count).
	Checkpoints     int64   `json:"checkpoints"`
	CheckpointBytes float64 `json:"checkpoint_bytes"`
}

// Result summarizes one workflow execution.
type Result struct {
	Makespan     float64
	Spans        []Span
	StorageStats storage.Stats
	// BusySeconds sums slot-occupied time across all cores; divide by
	// makespan*cores for utilization.
	BusySeconds float64
	Counters
}

// Completed counts successful task executions (spans not flagged
// Failed); it equals the task count for any run that finished.
func (r *Result) Completed() int {
	n := 0
	for _, s := range r.Spans {
		if !s.Failed {
			n++
		}
	}
	return n
}

// Utilization returns mean worker-core utilization over the makespan.
func (r *Result) Utilization(c *cluster.Cluster) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.BusySeconds / (r.Makespan * float64(c.TotalCores()))
}

// job is one schedulable unit: a task plus the state DAGMan keeps for
// it across re-queues.
type job struct {
	task *workflow.Task
	// remain counts the task's parents that have not finished.
	remain int
	// tries numbers the task's attempts from 1; failures counts its
	// injected failures against MaxRetries.
	tries    int
	failures int
	// ckpt is the task's durable checkpoint, nil until it writes one.
	ckpt *checkpoint
}

// checkpoint is the synthetic file a task's checkpoints overwrite in
// place, sized by the task's resident memory (what a checkpoint dumps),
// and the fraction of the task's computation it preserves.
type checkpoint struct {
	workflow.File
	progress float64
}

// Run plans and executes the workflow on the cluster using the given
// storage system. The storage system must already be Init-ed against the
// cluster; input files are pre-staged (free, per the paper's methodology)
// and the simulated clock runs from first submission to last task
// completion.
func Run(e *sim.Engine, opts Options, w *workflow.Workflow) (*Result, error) {
	if !w.Finalized() {
		return nil, fmt.Errorf("wms: workflow %s is not finalized", w.Name)
	}
	if opts.Cluster == nil || opts.Storage == nil {
		return nil, fmt.Errorf("wms: options need both a cluster and a storage system")
	}
	if opts.SubmitDelay == 0 {
		opts.SubmitDelay = DefaultSubmitDelay
	}
	if opts.StartLatency == 0 {
		opts.StartLatency = DefaultStartLatency
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"FailureRate", opts.FailureRate},
		{"OutageRate", opts.OutageRate},
		{"OutageDuration", opts.OutageDuration},
		{"CheckpointInterval", opts.CheckpointInterval},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("wms: %s must be finite (got %g)", f.name, f.v)
		}
	}
	if opts.CheckpointInterval < 0 {
		return nil, fmt.Errorf("wms: negative checkpoint interval %g", opts.CheckpointInterval)
	}
	if opts.OutageRate < 0 {
		return nil, fmt.Errorf("wms: negative outage rate %g", opts.OutageRate)
	}
	// Check every task can ever run: memory demand must fit some node.
	if !opts.SkipMemoryLimit {
		for _, t := range w.Tasks {
			need := cluster.MemoryMB(t.PeakMemory)
			fits := false
			for _, n := range opts.Cluster.Workers {
				if need <= n.Memory.Capacity() {
					fits = true
					break
				}
			}
			if !fits {
				return nil, fmt.Errorf("wms: task %s needs %d MB, larger than any worker", t.ID, need)
			}
		}
	}

	opts.Storage.PreStage(w.Inputs())

	run := &execution{
		e:      e,
		opts:   opts,
		w:      w,
		jobs:   make(map[*workflow.Task]*job, len(w.Tasks)),
		done:   sim.NewWaitGroup(e),
		result: &Result{},
		rec:    opts.Recorder,
	}
	if opts.FailureRate > 0 {
		if opts.FailureRate >= 1 {
			return nil, fmt.Errorf("wms: failure rate %g leaves no chance of progress", opts.FailureRate)
		}
		seed := opts.FailureSeed
		if seed == 0 {
			seed = DefaultFailureSeed
		}
		run.failRand = rng.New(seed)
		run.maxRetries = opts.MaxRetries
		if run.maxRetries == 0 {
			run.maxRetries = DefaultMaxRetries
		}
	}
	if opts.OutageRate > 0 {
		dur := opts.OutageDuration
		if dur == 0 {
			dur = DefaultOutageDuration
		}
		seed := opts.OutageSeed
		if seed == 0 {
			seed = DefaultOutageSeed
		}
		sched, err := outage.New(outage.Config{Rate: opts.OutageRate, Duration: dur, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("wms: %w", err)
		}
		run.outages = sched
		run.running = make(map[*cluster.Node][]*attempt)
	}
	if opts.DataAware {
		run.disp = newDataAwareDispatcher(e, opts.Storage)
	} else {
		run.disp = newFIFODispatcher(e)
	}
	run.execute()
	run.result.StorageStats = opts.Storage.Stats()
	return run.result, nil
}

// execution carries the run's mutable state.
type execution struct {
	e      *sim.Engine
	opts   Options
	w      *workflow.Workflow
	disp   dispatcher
	jobs   map[*workflow.Task]*job
	ready  *sim.Mailbox[*job]
	done   *sim.WaitGroup
	result *Result
	rec    eventlog.Recorder // nil unless the run is recorded

	// Failure injection (nil failRand disables it). Failures are
	// transient: once a task has exhausted maxRetries failed attempts it
	// runs clean, so workflows always complete.
	failRand   *rng.RNG
	maxRetries int

	// Correlated outages (nil outages disables them). Per-node daemons
	// walk the deterministic schedule; running tracks in-flight attempts
	// per node (slice, not map: kill order must be deterministic) so an
	// outage can kill them.
	outages *outage.Schedule
	running map[*cluster.Node][]*attempt
	stopped bool
}

// attempt is one slot's in-flight task attempt. Each slot owns one and
// reuses it across jobs, since a slot runs one attempt at a time.
//
// It is the attempt's kill handle: an outage on its node sets killed,
// and interrupts the attempt immediately when it is inside an
// interruptible compute sleep (timer armed). Attempts suspended
// elsewhere (mid-transfer, in admission queues) notice the flag
// cooperatively at their next phase boundary.
//
// It also holds the state emit folds the attempt's events into: the
// span so far and the compute-seconds its checkpoints preserved.
type attempt struct {
	p      *sim.Proc
	node   *cluster.Node
	j      *job
	killed bool
	timer  *sim.Timer // non-nil while inside sleepAttempt
	span   Span       // Start and Exec of the attempt so far
	ckpt   float64    // compute-seconds this attempt's checkpoints preserved
}

// execute wires up DAGMan and the slots, then drives the engine to
// completion.
func (x *execution) execute() {
	x.ready = sim.NewMailbox[*job](x.e)
	x.done.Add(len(x.w.Tasks))

	jobs := make([]job, len(x.w.Tasks))
	for i, t := range x.w.Tasks {
		j := &jobs[i]
		j.task, j.remain = t, len(t.Parents())
		x.jobs[t] = j
		if j.remain == 0 {
			x.ready.Put(j)
		}
	}

	// DAGMan: submits ready jobs to the scheduler, throttled.
	x.e.GoDaemon("dagman", func(p *sim.Proc) {
		for {
			j, ok := x.ready.Get(p)
			if !ok {
				return
			}
			p.Sleep(x.opts.SubmitDelay)
			x.disp.submit(j)
		}
	})

	// Slots: one process per worker core, pulling jobs from the
	// dispatcher (Condor startds with one slot per core).
	for _, node := range x.opts.Cluster.Workers {
		for s := 0; s < node.Type.Cores; s++ {
			node := node
			x.e.GoDaemon(fmt.Sprintf("%s/slot%d", node.Name, s), func(p *sim.Proc) {
				a := &attempt{p: p, node: node}
				for {
					j := x.disp.request(p, node)
					if j == nil {
						return
					}
					if x.outages != nil && node.Down() {
						// A dead startd matches no jobs: hand the job back
						// for a live node and wait out the outage.
						x.disp.submit(j)
						node.WaitUp(p)
						continue
					}
					x.runJob(a, j)
					if x.outages != nil && node.Down() {
						// The attempt was killed mid-run; don't request
						// more work until the node recovers.
						node.WaitUp(p)
					}
				}
			})
		}
	}

	// Outage daemons: one per worker node, walking the node's
	// deterministic outage stream. They stop re-arming once the workflow
	// completes, so the event queue drains.
	if x.outages != nil {
		for i, node := range x.opts.Cluster.Workers {
			i, node := i, node
			x.e.GoDaemon(fmt.Sprintf("%s/outage", node.Name), func(p *sim.Proc) {
				st := x.outages.Node(i)
				for {
					w := st.Next()
					p.Sleep(w.Start - p.Now())
					if x.stopped {
						return
					}
					x.takeDown(node, w.Duration())
					p.Sleep(w.End - p.Now())
					node.SetUp()
					x.emit(nil, eventlog.Event{T: p.Now(), Kind: eventlog.NodeUp, Node: node.Name})
					x.emit(nil, eventlog.Event{T: p.Now(), Kind: eventlog.OutageEnd, Node: node.Name})
					if x.stopped {
						return
					}
				}
			})
		}
	}

	// Completion watcher: once every task is done, close the pipeline so
	// the daemons drain.
	x.e.Go("completion", func(p *sim.Proc) {
		x.done.Wait(p)
		x.result.Makespan = p.Now()
		x.stopped = true
		x.ready.Close()
		x.disp.close()
	})

	x.e.Run()
}

// emit is the run's one emission point. It folds ev into the Result —
// the attempt's span, BusySeconds and the Counters — and then hands the
// same value to the Recorder, if any. a is the attempt the event belongs
// to; node and outage events pass nil.
func (x *execution) emit(a *attempt, ev eventlog.Event) {
	r := x.result
	switch ev.Kind {
	case eventlog.TaskStart:
		a.span = Span{Task: a.j.task, Node: ev.Node, Start: ev.T}
		a.ckpt = 0
	case eventlog.TaskExec:
		a.span.Exec = ev.T
	case eventlog.CheckpointWrite:
		r.Checkpoints++
		r.CheckpointBytes += ev.Size
		// The same additions runJob makes to reach each checkpoint, so
		// lost work comes out bit-identical to the compute clock.
		a.ckpt += x.opts.CheckpointInterval
	case eventlog.TaskFinish, eventlog.TaskFail:
		span := a.span
		span.WriteEnd = ev.T
		busy := span.WriteEnd - span.Start
		if ev.Kind == eventlog.TaskFail {
			if span.Exec == 0 {
				// Killed before computation began: the whole occupied
				// window was staging (keeps trace phase accounting
				// non-negative).
				span.Exec = span.WriteEnd
			}
			span.Failed = true
			r.LostWorkSeconds += busy - a.ckpt
			if ev.Reason == "outage" {
				r.OutageKills++
			} else {
				r.Failures++
			}
		}
		r.Spans = append(r.Spans, span)
		r.BusySeconds += busy
	case eventlog.TaskRetry:
		r.Retries++
	case eventlog.OutageBegin:
		r.Outages++
	}
	if x.rec != nil {
		x.rec.Record(ev)
	}
}

// takeDown starts an outage on node: kill every in-flight attempt and
// mark the node offline so its slots idle and its data is unreadable.
// dur is the scheduled outage length, carried on the outage-begin event.
func (x *execution) takeDown(node *cluster.Node, dur float64) {
	node.SetDown()
	now := x.e.Now()
	x.emit(nil, eventlog.Event{T: now, Kind: eventlog.OutageBegin, Node: node.Name, Dur: dur})
	x.emit(nil, eventlog.Event{T: now, Kind: eventlog.NodeDown, Node: node.Name})
	for _, a := range x.running[node] {
		a.killed = true
		x.emit(a, eventlog.Event{
			T: now, Kind: eventlog.OutageKill, Task: a.j.task.ID, Node: node.Name, Attempt: a.j.tries,
		})
		if a.timer != nil {
			// Interrupt the compute sleep right now; attempts blocked in
			// transfers or queues notice the flag at their next boundary.
			a.timer.Stop()
			a.timer = nil
			a.p.Resume()
		}
	}
}

// register makes a killable by an outage on its node (a no-op when
// outages are disabled).
func (x *execution) register(a *attempt) {
	if x.outages != nil {
		x.running[a.node] = append(x.running[a.node], a)
	}
}

// unregister removes a's kill handle.
func (x *execution) unregister(a *attempt) {
	list := x.running[a.node]
	for i, b := range list {
		if b == a {
			x.running[a.node] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// sleepAttempt advances the attempt by d seconds of computation,
// returning false when an outage killed it (the sleep ends at the kill
// instant). With outages disabled it is exactly Proc.Sleep, keeping
// outage-free runs bit-identical.
func (x *execution) sleepAttempt(a *attempt, d float64) bool {
	p := a.p
	if x.outages == nil {
		p.Sleep(d)
		return true
	}
	if a.killed {
		return false
	}
	finished := false
	a.timer = x.e.After(d, func() {
		finished = true
		a.timer = nil
		p.Resume()
	})
	p.Suspend()
	a.timer = nil
	return finished && !a.killed
}

// checkpoint interns the job's checkpoint on its first write.
func (j *job) checkpoint() *checkpoint {
	if j.ckpt == nil {
		size := j.task.PeakMemory
		if size <= 0 {
			size = defaultCheckpointBytes
		}
		j.ckpt = &checkpoint{File: workflow.File{Name: "__ckpt__/" + j.task.ID, Size: size}}
	}
	return j.ckpt
}

// stage charges one storage access (an input read, checkpoint transfer,
// or output write) on behalf of the attempt, bracketed by
// transfer-start/transfer-drain events.
func (x *execution) stage(a *attempt, f *workflow.File, phase string, write bool) {
	p, node, t := a.p, a.node, a.j.task
	start := p.Now()
	x.emit(a, eventlog.Event{
		T: start, Kind: eventlog.TransferStart,
		Task: t.ID, Node: node.Name, File: f.Name, Phase: phase, Size: f.Size,
	})
	if write {
		x.opts.Storage.Write(p, node, f)
	} else {
		x.opts.Storage.Read(p, node, f)
	}
	x.emit(a, eventlog.Event{
		T: p.Now(), Kind: eventlog.TransferDrain,
		Task: t.ID, Node: node.Name, File: f.Name, Phase: phase, Size: f.Size,
		Dur: p.Now() - start,
	})
}

// abort ends a failed attempt (injected failure or outage kill): it
// frees the slot's memory and hands the job back to DAGMan.
func (x *execution) abort(a *attempt, memMB int) {
	if memMB > 0 {
		a.node.Memory.Release(memMB)
	}
	x.unregister(a)
	reason := "injected"
	if a.killed {
		reason = "outage"
	}
	t, now := a.j.task, a.p.Now()
	x.emit(a, eventlog.Event{
		T: now, Kind: eventlog.TaskFail, Task: t.ID, Node: a.node.Name,
		Attempt: a.j.tries, Reason: reason,
	})
	x.emit(a, eventlog.Event{T: now, Kind: eventlog.TaskRetry, Task: t.ID, Attempt: a.j.tries})
	x.ready.Put(a.j)
}

// runJob executes one attempt of j on the slot that owns a: memory
// admission, input staging, computation, output publication, then
// dependency release.
func (x *execution) runJob(a *attempt, j *job) {
	p, node, t := a.p, a.node, j.task
	j.tries++
	a.j, a.killed = j, false
	x.register(a)
	x.emit(a, eventlog.Event{T: p.Now(), Kind: eventlog.TaskStart, Task: t.ID, Node: node.Name, Attempt: j.tries})

	memMB := 0
	if !x.opts.SkipMemoryLimit && t.PeakMemory > 0 {
		memMB = cluster.MemoryMB(t.PeakMemory)
		if node.Memory.Available() < memMB {
			x.result.MemoryWaits++
		}
		node.Memory.Acquire(p, memMB)
	}
	if a.killed {
		// The node died while this attempt was queued for memory
		// admission; nothing ran, nothing is lost.
		x.abort(a, memMB)
		return
	}

	p.Sleep(x.opts.StartLatency)
	if a.killed {
		// The node died during slot activation: abort before staging so a
		// dead node issues no storage traffic.
		x.abort(a, memMB)
		return
	}
	for _, f := range t.Inputs {
		x.stage(a, f, "input", false)
		if a.killed {
			x.abort(a, memMB)
			return
		}
	}
	full := t.Runtime / node.Type.CPUFactor
	resume := 0.0
	if ck := j.ckpt; ck != nil && ck.progress > 0 {
		// Restore the last checkpoint before resuming: real staging
		// traffic through the storage backend, like any input read.
		x.stage(a, &ck.File, "restore", false)
		resume = ck.progress * full
		x.emit(a, eventlog.Event{
			T: p.Now(), Kind: eventlog.CheckpointRestore,
			Task: t.ID, Node: node.Name, File: ck.Name, Size: ck.Size, Attempt: j.tries,
		})
		if a.killed {
			x.abort(a, memMB)
			return
		}
	}
	x.emit(a, eventlog.Event{T: p.Now(), Kind: eventlog.TaskExec, Task: t.ID, Node: node.Name, Attempt: j.tries})

	cpu := full - resume
	failAt := -1.0
	if x.failRand != nil && j.failures < x.maxRetries &&
		x.failRand.Float64() < x.opts.FailureRate {
		// Transient failure: the attempt dies a random fraction into its
		// (remaining) computation, the slot is freed, and DAGMan
		// re-queues the job. The aborted attempt still occupied the
		// slot, so it is recorded as a failed span and charged to
		// BusySeconds.
		failAt = cpu * x.failRand.Float64()
	}
	ran := 0.0
	for {
		chunk := cpu
		if x.opts.CheckpointInterval > 0 && ran+x.opts.CheckpointInterval < cpu {
			chunk = ran + x.opts.CheckpointInterval
		}
		if failAt >= 0 && failAt <= chunk {
			if x.sleepAttempt(a, failAt-ran) {
				j.failures++
			}
			x.abort(a, memMB)
			return
		}
		if !x.sleepAttempt(a, chunk-ran) {
			x.abort(a, memMB)
			return
		}
		ran = chunk
		if ran >= cpu {
			break
		}
		// Durable checkpoint: staged through the storage system, so the
		// overhead competes with the workflow's own I/O. Progress is
		// credited as soon as the write completes — even if the attempt
		// was killed while writing, the bytes landed, so the retry may
		// resume from them (otherwise lost work would double-count paid
		// checkpoint overhead).
		ck := j.checkpoint()
		x.stage(a, &ck.File, "ckpt", true)
		ck.progress = (resume + ran) / full
		x.emit(a, eventlog.Event{
			T: p.Now(), Kind: eventlog.CheckpointWrite,
			Task: t.ID, Node: node.Name, File: ck.Name, Size: ck.Size, Attempt: j.tries,
		})
		if a.killed {
			x.abort(a, memMB)
			return
		}
	}

	for _, f := range t.Outputs {
		x.stage(a, f, "output", true)
		if a.killed {
			x.abort(a, memMB)
			return
		}
	}
	now := p.Now()
	x.emit(a, eventlog.Event{
		T: now, Kind: eventlog.TaskFinish, Task: t.ID, Node: node.Name,
		Attempt: j.tries, Dur: now - a.span.Start,
	})
	if memMB > 0 {
		node.Memory.Release(memMB)
	}
	x.unregister(a)

	// DAGMan dependency release.
	for _, c := range t.Children() {
		cj := x.jobs[c]
		cj.remain--
		if cj.remain == 0 {
			x.ready.Put(cj)
		}
	}
	x.done.Done()
}
