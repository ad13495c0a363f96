// Command perfbench is vsmartjoin's benchmark of record. It drives the
// system from outside, the way its users do — AllPairs and AllKNN on a
// trace, HTTP to a real vsmartjoind node or to a router in front of
// replicated nodes — and checks every answer against its own
// brute-force oracle. See README.md for the workloads and metrics.
//
//	perfbench -workload serve-read -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics; with -trace 1 it holds the per-layer metrics, and
// the spans of the traced run are written under .bench_build/spans/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const runLimit = 170 * time.Second

// Result is the final stdout line.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured serving time per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
		root     = flag.String("root", ".", "repository checkout the benchmark runs in")
		daemon   = flag.String("daemon", "", "path of the vsmartjoind binary")
		child    = flag.Bool("batch-child", false, "internal: run the batch phase and print its report")
	)
	flag.Parse()
	if *child {
		if err := batchChild(*seed, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench batch:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *daemon == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -daemon, -seconds ≥ 1 and -trace 0|1")
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(*root, ".bench_build", "run"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := &Env{Daemon: *daemon, Work: work, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	// A run must end well within three minutes; exiting kills every
	// child (see childAttr) and prints no result.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	res, props, err := runWorkload(w, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "# workload %s seed %d trace %d\n", *workload, *seed, *trace)
	fmt.Fprintln(out, "# workload properties:")
	props.Print(out)
	fmt.Fprintln(out, "# metrics:")
	res.Metrics.Print(out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}
