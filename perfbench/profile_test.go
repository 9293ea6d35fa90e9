package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"ec2wfsim/internal/flow.(*Net).solve", "ec2wfsim/internal/flow.(*Net).flush"}, "flow"},
		{[]string{"ec2wfsim/internal/sim.(*Engine).step"}, "sim"},
		{[]string{"ec2wfsim/internal/sim.(*Mailbox[...]).Get"}, "sim"},
		{[]string{"encoding/json.(*encodeState).marshal"}, "json"},
		{[]string{"strconv.AppendFloat", "ec2wfsim/internal/eventlog.(*Writer).Record"}, "json"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ec2wfsim/internal/wms.(*run).exec"}, "alloc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "ec2wfsim/internal/sim.(*Proc).park"}, "sched"},
		{[]string{"runtime.mapaccess2", "ec2wfsim/internal/flow.(*Net).solve"}, "flow"},
		{[]string{"aeshashbody", "runtime.mapaccess2", "ec2wfsim/internal/flow.(*Net).solve"}, "flow"},
		{[]string{"gcWriteBarrier", "ec2wfsim/internal/sim.(*Engine).schedule"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.growslice", "bytes.growSlice"}, "alloc"},
		{[]string{"runtime.memmove", "bytes.(*Buffer).Write", "ec2wfsim/internal/eventlog.(*Writer).record"}, "other"},
		{[]string{"sort.insertionSort"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var ns int64
	found := false
	for _, s := range samples {
		ns += s.ns
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				found = true
			}
		}
	}
	if len(samples) == 0 || ns <= 0 || !found {
		t.Fatalf("decoded %d samples, %d ns, spin frame found: %v", len(samples), ns, found)
	}
	a := attribute(samples)
	if a.TotalNs != ns || a.Share["other"] == 0 {
		t.Fatalf("attribution %+v", a)
	}
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded as a profile")
	}
}
