// Command perfbench is the HOURS query benchmark. One invocation runs one
// named workload in one process and prints, as its last line, a JSON
// object with the correctness verdict, the number of queries attempted
// and failed, and the metrics of the chosen mode:
//
//	go run . -workload live-tcp -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it times
// the calls into each layer from this package's own shims and replays
// and prints the per-layer metrics instead. Every answer is checked
// against an oracle computed apart from the routing code; a wrong answer
// makes the command exit with status 1. See README.md for the workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	measure time.Duration
	traced  bool
}

// runner runs one named workload and returns its result.
type runner func(ctx context.Context, o options) (*result, error)

var workloads = map[string]runner{
	"live-tcp":        func(ctx context.Context, o options) (*result, error) { return runLive(ctx, liveTCP(false), o) },
	"live-mem-attack": func(ctx context.Context, o options) (*result, error) { return runLive(ctx, liveMemAttack(false), o) },
	"sim-fig9":        func(ctx context.Context, o options) (*result, error) { return runSim(ctx, simFig9(false), o) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "measured time in seconds")
	traced := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d, want 0 or 1\n", *traced)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds %v, want > 0\n", *seconds)
		return 2
	}
	o := options{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
	}
	res, err := w(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return report(*name, res, o.traced, stdout, stderr)
}

// report prints a run's notes and its result line and returns the exit
// status: 1 when an answer failed its oracle.
func report(name string, res *result, traced bool, stdout, stderr io.Writer) int {
	if err := res.complete(traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: wrong answer: %v\n", name, res.wrong)
		return 1
	}
	return 0
}
