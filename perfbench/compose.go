package main

import (
	"bytes"
	"fmt"
	"time"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// The traced run rebuilds each cell from the layers' own public
// functions, in the order harness.Run wires them (apps -> sim/flow ->
// cluster -> storage -> wms), so that it can wrap and time the calls
// between layers. The composition must stay bit-equal to the harness:
// every traced run's makespan is compared against harness output for
// the same cell, and a recorded composition against RunRecorded's log.

// layerCounts is what one composed run measured at the layer
// boundaries. Counts are simulator facts; the *Ns fields are host time.
type layerCounts struct {
	makespan  float64
	genNs     int64   // host time inside apps.PaperScaleSeeded
	wmsNs     int64   // host time inside wms.Run
	events    int64   // sim.Engine.Scheduled() after the run
	ioOps     int64   // storage Read and Write calls
	simIOs    float64 // simulated seconds spent inside those calls
	netBytes  float64 // storage Stats().NetworkBytes
	recordNs  int64   // host time inside eventlog Writer.Record
	records   int64
	logEvents uint64 // event-log trailer counts
	logBytes  int64
	decodeNs  int64 // host time inside eventlog.Decode
}

func (c *layerCounts) add(o layerCounts) {
	c.genNs += o.genNs
	c.wmsNs += o.wmsNs
	c.events += o.events
	c.ioOps += o.ioOps
	c.simIOs += o.simIOs
	c.netBytes += o.netBytes
	c.recordNs += o.recordNs
	c.records += o.records
	c.logEvents += o.logEvents
	c.logBytes += o.logBytes
	c.decodeNs += o.decodeNs
}

// countingSystem wraps a storage backend and counts the calls the
// workflow engine makes into it, with the simulated time each took.
type countingSystem struct {
	storage.System
	ops   int64
	simIO float64
}

func (s *countingSystem) Read(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	t := p.Now()
	s.System.Read(p, node, f)
	s.ops++
	s.simIO += p.Now() - t
}

func (s *countingSystem) Write(p *sim.Proc, node *cluster.Node, f *workflow.File) {
	t := p.Now()
	s.System.Write(p, node, f)
	s.ops++
	s.simIO += p.Now() - t
}

// timingRecorder times each Record call into an event-log writer.
// Record is synchronous, so this is the encoder's self time.
type timingRecorder struct {
	w  *eventlog.Writer
	ns int64
	n  int64
}

func (r *timingRecorder) Record(e eventlog.Event) {
	t := time.Now()
	r.w.Record(e)
	r.ns += int64(time.Since(t))
	r.n++
}

// generate builds a cell's DAG as harness.Run does, timing it.
func generate(cfg harness.RunConfig, lc *layerCounts) (*workflow.Workflow, error) {
	t := time.Now()
	dag, err := apps.PaperScaleSeeded(cfg.App, cfg.AppSeed)
	lc.genNs += int64(time.Since(t))
	return dag, err
}

// compose runs one cell from the layers. dag nil generates it, as
// harness.Run does; rec, if set, receives the run's event stream.
func compose(cfg harness.RunConfig, dag *workflow.Workflow, rec eventlog.Recorder) (lc layerCounts, err error) {
	defer recoverTo(&err)
	if dag == nil {
		if dag, err = generate(cfg, &lc); err != nil {
			return lc, err
		}
	}
	sys, err := storage.ByName(cfg.Storage)
	if err != nil {
		return lc, err
	}
	workerType, err := cluster.TypeByName(cfg.WorkerType)
	if err != nil {
		return lc, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = harness.DefaultSeed
	}
	e := sim.NewEngine()
	net := flow.NewNetVersion(e, cfg.FlowVersion)
	c, err := cluster.New(e, net, rng.New(seed), cluster.Config{
		Workers:         cfg.Workers,
		WorkerType:      workerType,
		Extra:           sys.ExtraNodeTypes(),
		InitializeDisks: cfg.InitializeDisks,
		InitializeBytes: cfg.InitializeBytes,
	})
	if err != nil {
		return lc, err
	}
	if rec != nil {
		for _, n := range c.AllNodes() {
			rec.Record(eventlog.Event{T: e.Now(), Kind: eventlog.NodeUp, Node: n.Name})
		}
	}
	cs := &countingSystem{System: sys}
	env := &storage.Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(seed + 1), Rec: rec}
	if err := cs.Init(env); err != nil {
		return lc, err
	}
	t := time.Now()
	res, err := wms.Run(e, wms.Options{
		Cluster:            c,
		Storage:            cs,
		DataAware:          cfg.DataAware,
		FailureRate:        cfg.FailureRate,
		MaxRetries:         cfg.MaxRetries,
		FailureSeed:        cfg.FailureSeed,
		OutageRate:         cfg.OutageRate,
		OutageDuration:     cfg.OutageDuration,
		OutageSeed:         cfg.OutageSeed,
		CheckpointInterval: cfg.CheckpointInterval,
		Recorder:           rec,
	}, dag)
	lc.wmsNs = int64(time.Since(t))
	if err != nil {
		return lc, err
	}
	lc.makespan = res.Makespan
	lc.events = e.Scheduled()
	lc.ioOps = cs.ops
	lc.simIOs = cs.simIO
	lc.netBytes = sys.Stats().NetworkBytes
	if n := res.Completed(); n != len(dag.Tasks) {
		return lc, fmt.Errorf("composed %s completed %d of %d tasks", cellLabel(cfg), n, len(dag.Tasks))
	}
	return lc, nil
}

// header mirrors the log header harness.RunRecorded writes for a
// catalog cell.
func header(cfg harness.RunConfig) (eventlog.Header, error) {
	spec := cfg.Spec()
	specJSON, err := spec.CanonicalJSON()
	if err != nil {
		return eventlog.Header{}, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = harness.DefaultSeed
	}
	return eventlog.Header{CellKey: harness.CellKey(cfg), Spec: specJSON, Seed: seed, FlowVersion: cfg.FlowVersion}, nil
}

// composeRecorded runs a composed cell into an event log with header h,
// timing every Record call.
func composeRecorded(cfg harness.RunConfig, h eventlog.Header) ([]byte, layerCounts, error) {
	var buf bytes.Buffer
	lw, err := eventlog.NewWriter(&buf, h)
	if err != nil {
		return nil, layerCounts{}, err
	}
	tr := &timingRecorder{w: lw}
	lc, err := compose(cfg, nil, tr)
	if err != nil {
		return nil, lc, err
	}
	if err := lw.Close(lc.events); err != nil {
		return nil, lc, err
	}
	lc.recordNs, lc.records = tr.ns, tr.n
	lc.logEvents = lw.Events()
	lc.logBytes = int64(buf.Len())
	return buf.Bytes(), lc, nil
}
