package wms

import (
	"testing"

	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/units"
)

// sliceRecorder keeps every event it receives, in order.
type sliceRecorder []eventlog.Event

func (r *sliceRecorder) Record(ev eventlog.Event) { *r = append(*r, ev) }

// TestCountersFoldEventStream pins the fold contract: every span and
// every counter but MemoryWaits is derived from the event stream, so
// each must equal its count in the recorded stream, and each span's
// timestamps must be the T of its attempt's events.
func TestCountersFoldEventStream(t *testing.T) {
	const interval = 10.0
	e, c, sys := deploy(t, "gluster-nufa", 2)
	w := fanWorkflow(t, 32, 60, 100*units.MB)
	var rec sliceRecorder
	res, err := Run(e, Options{
		Cluster: c, Storage: sys,
		FailureRate: 0.2, FailureSeed: 3,
		OutageRate: 40, OutageDuration: 90, OutageSeed: 7,
		CheckpointInterval: interval,
		Recorder:           &rec,
	}, w)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		task    string
		attempt int
	}
	type times struct {
		start, exec, ckpt float64
		hasExec           bool
	}
	var want Counters
	var busy float64
	open := map[key]*times{}
	ends := []eventlog.Event{} // task-finish and task-fail, in stream order
	for _, ev := range rec {
		k := key{ev.Task, ev.Attempt}
		switch ev.Kind {
		case eventlog.TaskStart:
			open[k] = &times{start: ev.T}
		case eventlog.TaskExec:
			open[k].exec, open[k].hasExec = ev.T, true
		case eventlog.CheckpointWrite:
			want.Checkpoints++
			want.CheckpointBytes += ev.Size
			open[k].ckpt += interval
		case eventlog.TaskFinish, eventlog.TaskFail:
			at := open[k]
			busy += ev.T - at.start
			if ev.Kind == eventlog.TaskFail {
				want.LostWorkSeconds += (ev.T - at.start) - at.ckpt
				switch ev.Reason {
				case "injected":
					want.Failures++
				case "outage":
					want.OutageKills++
				default:
					t.Errorf("task-fail with reason %q", ev.Reason)
				}
			}
			ends = append(ends, ev)
		case eventlog.TaskRetry:
			want.Retries++
		case eventlog.OutageBegin:
			want.Outages++
		}
	}
	want.MemoryWaits = res.MemoryWaits // the one counter no event carries

	if want.Failures == 0 || want.OutageKills == 0 || want.Outages == 0 || want.Checkpoints == 0 {
		t.Fatalf("test premise broken: the stream lacks a failure, kill, outage or checkpoint: %+v", want)
	}
	if res.Counters != want {
		t.Errorf("counters do not fold the event stream:\ngot  %+v\nwant %+v", res.Counters, want)
	}
	if res.BusySeconds != busy {
		t.Errorf("BusySeconds = %g, want %g from the stream", res.BusySeconds, busy)
	}
	if len(res.Spans) != len(ends) {
		t.Fatalf("%d spans, want %d task-finish plus task-fail events", len(res.Spans), len(ends))
	}
	for i, ev := range ends {
		s, at := res.Spans[i], open[key{ev.Task, ev.Attempt}]
		exec := ev.T // an attempt killed before computation spans no execution
		if at.hasExec {
			exec = at.exec
		}
		if s.Task.ID != ev.Task || s.Node != ev.Node || s.Failed != (ev.Kind == eventlog.TaskFail) ||
			s.Start != at.start || s.Exec != exec || s.WriteEnd != ev.T {
			t.Errorf("span %d = {%s %s start=%g exec=%g end=%g failed=%v}, want {%s %s start=%g exec=%g end=%g %s}",
				i, s.Task.ID, s.Node, s.Start, s.Exec, s.WriteEnd, s.Failed,
				ev.Task, ev.Node, at.start, exec, ev.T, ev.Kind)
		}
	}
}
