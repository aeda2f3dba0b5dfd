// Command perfbench is the repository's end-to-end benchmark. It runs the
// in-process serving stack — schedd daemons, the schedgw gateway, the LRU,
// the disk tier and the engine — built through the same public
// constructors and options as cmd/schedd and cmd/schedgw, drives it with a
// closed loop of clients, checks every response byte for byte and prints
// the figures as one JSON line:
//
//	perfbench --workload hit-gw2 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it adds
// the benchmark's observers around each layer's public surface and prints
// the per-layer metrics instead. README.md describes the workloads and the
// layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 10, "measured seconds")
		trace   = fs.Int("trace", 0, "1 prints per-layer metrics from an instrumented run, 0 end-to-end metrics")
		workdir = fs.String("workdir", ".bench_build/work", "scratch directory for disk tiers, removed at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := benches[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown --workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	res, err := runBench(mk(), config{seed: *seed, seconds: *seconds, traced: *trace == 1, workdir: *workdir, setups: numSetups}, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadNames() []string {
	var ns []string
	for n := range benches {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
