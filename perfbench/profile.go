package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The traced run's CPU profile is attributed to layers here. The
// profile is read with a small protobuf decoder (only the Profile
// fields attribution needs), so the benchmark depends on nothing
// beyond the standard library.

// stackSample is one profile sample: its frames, leaf first (inlined
// frames expanded), and its CPU time.
type stackSample struct {
	frames []string
	ns     int64
}

// readProfile decodes a gzipped pprof CPU profile.
func readProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, u := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		i := funcNames[fn]
		if i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{ns: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ss.frames = append(ss.frames, name(fn))
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one varint) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// Attribution. A sample goes to one bucket, decided by its leaf frame:
//
//   - A leaf in the Go runtime (including its assembly, which has no
//     package prefix) is classified by its stack: "gc" if any
//     frame is a collector frame (gcFrames), else "alloc" if any frame
//     is the allocator (allocFrames), else "sched" if any frame is the
//     scheduler or a channel operation (schedFrames) — this is where
//     sim.Proc's park/resume handoff lands. A runtime leaf matching
//     none of these (memmove, map access, hashing) is charged to its
//     nearest caller outside the runtime, by the rules below.
//   - A leaf in ec2wfsim/internal/<pkg> goes to <pkg> ("flow", "sim",
//     "storage", "wms", "eventlog", ...).
//   - A leaf in encoding/json, reflect or strconv goes to "json".
//   - Anything else goes to "other".
//
// The per-layer metrics cpu.<bucket> are each bucket's share of all
// sampled CPU time. The table and the raw profile are written next to
// every traced result so the split can be checked or redone.

var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.greyobject", "runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.deductSweepCredit", "runtime.(*mheap).reclaim", "runtime.(*sweepLocked)", "runtime.GC",
		"gcWriteBarrier",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.(*mcache).refill", "runtime.(*mheap).alloc", "runtime.newobject",
		"runtime.newarray", "runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.rawstring",
		"runtime.rawbyteslice",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.selectnb",
		"runtime.closechan", "runtime.send", "runtime.recv", "runtime.mcall", "runtime.gogo",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mPark", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futex", "runtime.runq", "runtime.stealWork", "runtime.execute",
		"runtime.resetspinning", "runtime.gosched", "runtime.goschedImpl", "runtime.newproc",
		"runtime.casgstatus", "runtime.lock2", "runtime.unlock2", "runtime.semacquire",
		"runtime.semrelease", "runtime.usleep", "runtime.osyield", "runtime.handoffp", "runtime.acquirep",
		"runtime.releasep",
	}
	jsonPackages = []string{"encoding/json.", "reflect.", "strconv."}
)

const modulePrefix = "ec2wfsim/internal/"

// attributionRules renders the table above for result files.
func attributionRules() map[string]any {
	return map[string]any{
		"order":           "leaf frame decides; a runtime leaf is classified by stack: gc, then alloc, then sched, else charged to its nearest non-runtime caller",
		"gc_frames":       gcFrames,
		"alloc_frames":    allocFrames,
		"sched_frames":    schedFrames,
		"json_packages":   jsonPackages,
		"module_packages": modulePrefix + "<pkg>. -> <pkg>",
		"otherwise":       "other",
		"frame_match":     "prefix of the function name",
	}
}

// isRuntime reports a Go runtime frame. Runtime assembly such as
// gcWriteBarrier, aeshashbody or memeqbody carries no package prefix.
func isRuntime(frame string) bool {
	return strings.HasPrefix(frame, "runtime.") || strings.HasPrefix(frame, "internal/runtime/") ||
		strings.HasPrefix(frame, "runtime/internal/") || !strings.Contains(frame, ".")
}

func anyPrefix(frames []string, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// bucketOf attributes one stack (leaf first) to a bucket.
func bucketOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if isRuntime(frames[0]) {
		switch {
		case anyPrefix(frames, gcFrames):
			return "gc"
		case anyPrefix(frames, allocFrames):
			return "alloc"
		case anyPrefix(frames, schedFrames):
			return "sched"
		}
		for _, f := range frames[1:] {
			if !isRuntime(f) {
				return packageBucket(f)
			}
		}
		return "other"
	}
	return packageBucket(frames[0])
}

func packageBucket(frame string) string {
	if rest, ok := strings.CutPrefix(frame, modulePrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	for _, p := range jsonPackages {
		if strings.HasPrefix(frame, p) {
			return "json"
		}
	}
	return "other"
}

// attribution is a profile split into buckets.
type attribution struct {
	TotalNs int64              `json:"total_ns"`
	Samples int                `json:"samples"`
	Share   map[string]float64 `json:"share"`
	// TopLeaves lists each bucket's heaviest leaf frames, to check the
	// rules against.
	TopLeaves map[string][]leafShare `json:"top_leaves"`
}

type leafShare struct {
	Frame string  `json:"frame"`
	Share float64 `json:"share"`
}

func attribute(samples []stackSample) *attribution {
	a := &attribution{Share: map[string]float64{}, TopLeaves: map[string][]leafShare{}}
	byBucket := map[string]int64{}
	leaves := map[string]map[string]int64{}
	for _, s := range samples {
		b := bucketOf(s.frames)
		byBucket[b] += s.ns
		a.TotalNs += s.ns
		a.Samples++
		leaf := "?"
		if len(s.frames) > 0 {
			leaf = s.frames[0]
		}
		if leaves[b] == nil {
			leaves[b] = map[string]int64{}
		}
		leaves[b][leaf] += s.ns
	}
	if a.TotalNs == 0 {
		return a
	}
	for b, ns := range byBucket {
		a.Share[b] = float64(ns) / float64(a.TotalNs)
		var ls []leafShare
		for f, ns := range leaves[b] {
			ls = append(ls, leafShare{f, float64(ns) / float64(a.TotalNs)})
		}
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].Share != ls[j].Share {
				return ls[i].Share > ls[j].Share
			}
			return ls[i].Frame < ls[j].Frame
		})
		if len(ls) > 5 {
			ls = ls[:5]
		}
		a.TopLeaves[b] = ls
	}
	return a
}
