// Command wfreplay works with recorded run artifacts (.wfevt event
// logs): verifying that a log replays byte-identically, summarizing
// one log, and diffing two logs as a paired cross-scenario report.
//
// Usage:
//
//	wfreplay verify run.wfevt            # re-run and byte-compare
//	wfreplay summary run.wfevt           # header, counters, event census
//	wfreplay diff a.wfevt b.wfevt        # paired cross-scenario report
//	wfreplay diff -tol 1e-9 -top 25 a.wfevt b.wfevt
//
// Exit codes: 0 success (verify: byte-identical; diff: no divergent
// transfer), 1 usage or I/O error, 2 semantic failure (verify: the
// replay diverged or the log is corrupt; diff: the runs diverged).
// The distinct corrupt/diverged code lets CI assert both directions:
// a clean log must verify with 0, a bit-flipped one must fail with 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/report/cross"
	"ec2wfsim/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(1)
	}
	switch os.Args[1] {
	case "verify":
		os.Exit(cmdVerify(os.Args[2:]))
	case "summary":
		os.Exit(cmdSummary(os.Args[2:]))
	case "diff":
		os.Exit(cmdDiff(os.Args[2:]))
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "wfreplay: unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `wfreplay works with recorded run artifacts (.wfevt event logs).

commands:
  verify <log>        re-run the log's scenario and byte-compare the streams
  summary <log>       print the log's header, counters and event census
  diff [flags] <a> <b>  paired cross-scenario report over two logs
      -tol <seconds>  timing tolerance before a transfer counts as divergent (default 0)
      -top <n>        rows per table (default 15, 0 = all)

exit codes: 0 success, 1 usage/I-O error, 2 replay mismatch, corrupt log or diff divergence
`)
}

// fail prints an error and picks the exit code: corrupt logs are
// semantic failures (2), everything else is operational (1).
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "wfreplay:", err)
	var ce *eventlog.CorruptError
	if errors.As(err, &ce) {
		return 2
	}
	return 1
}

func cmdVerify(args []string) int {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print nothing on success")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "wfreplay: verify takes exactly one log file")
		return 1
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	res, v, err := harness.ReplayVerify(data)
	if err != nil {
		return fail(err)
	}
	if !v.Match {
		fmt.Fprintf(os.Stderr, "wfreplay: %s: replay DIVERGED at seq %d: %s\n",
			fs.Arg(0), v.Seq, v.Detail)
		return 2
	}
	if !*quiet {
		fmt.Printf("%s: verified, %d events byte-identical (makespan %s)\n",
			fs.Arg(0), v.Events, units.Duration(res.Makespan))
	}
	return 0
}

func cmdSummary(args []string) int {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "wfreplay: summary takes exactly one log file")
		return 1
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	h, events, tr, err := eventlog.Decode(data)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s: %s v%d, %d events", fs.Arg(0), h.Format, h.Version, tr.Events)
	if tr.SimEvents > 0 {
		fmt.Printf(" (%d engine events)", tr.SimEvents)
	}
	fmt.Println()
	if h.CellKey != "" {
		fmt.Printf("  cell key      %s\n", h.CellKey)
	}
	fmt.Printf("  spec          %s\n", string(h.Spec))
	fmt.Printf("  seed          %#x\n", h.Seed)
	if len(h.Workflow) > 0 {
		fmt.Printf("  workflow      embedded (%s)\n", units.Bytes(float64(len(h.Workflow))))
	}
	if len(events) > 0 {
		fmt.Printf("  time span     %.3f .. %.3f s\n", events[0].T, events[len(events)-1].T)
	}
	census := make(map[eventlog.Kind]int)
	for _, e := range events {
		census[e.Kind]++
	}
	for _, k := range eventlog.Kinds() {
		if n := census[k]; n > 0 {
			fmt.Printf("  %-14s %d\n", k, n)
		}
	}
	return 0
}

func cmdDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("tol", 0, "timing tolerance in seconds before a transfer counts as divergent")
	top := fs.Int("top", 15, "rows per table (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "wfreplay: diff takes exactly two log files")
		return 1
	}
	aData, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	bData, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	r, err := cross.Compare(aData, bData, cross.Options{
		ALabel: filepath.Base(fs.Arg(0)),
		BLabel: filepath.Base(fs.Arg(1)),
		Tol:    *tol,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Print(r.Summary())
	fmt.Println()
	fmt.Print(r.TaskTable(*top).String())
	fmt.Println()
	fmt.Print(r.TransferTable(*top).String())
	fmt.Println()
	fmt.Print(r.DeltaChart(*top).String())
	if r.FirstDivergent != nil {
		return 2
	}
	return 0
}
