// Command bench is the one benchmark of the whole system. One invocation runs
// one workload from a seed, checks that the program's outputs are correct,
// and prints every metric by name with its unit; the last stdout line is the
// result object BENCHMARK.json's driver reads. With --trace 1 the same
// workload runs under the harness's span recorder and reports the per-layer
// metrics instead. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one run's settings. The flags set the first four; the rest are
// constants of the benchmark that the self-tests shrink to smoke scale.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// rows is the size of the lineitem table every workload runs on.
	rows int
	// setups is how often the workload's set-up is repeated; setup_s is the
	// median.
	setups int
	// minOps and minAlt are the sample floors behind the op's percentiles
	// (the traced run reports its p90) and alt_ms_p50: a phase runs until its
	// time is up and its floor is met. minPages is minOps for the serve
	// workloads, whose traced run also reports a p99.
	minOps   int
	minAlt   int
	minPages int
	// outDir receives trace files and the durable workload's data dirs.
	outDir string
}

func defaultConfig() config {
	return config{seed: 1, seconds: 20, rows: 100_000, setups: 5, minOps: 100, minAlt: 20, minPages: 1000, outDir: "out"}
}

// window is the share d of the measured seconds, as a duration.
func (c config) window(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(config, *tracer) (*outcome, error){
	"batch_cold":      runBatchCold,
	"batch_multicore": runBatchMulticore,
	"serve_hot":       runServeHot,
	"serve_churn":     runServeChurn,
}

// workloadOrder is the suite's order.
var workloadOrder = []string{"batch_cold", "batch_multicore", "serve_hot", "serve_churn"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run: batch_cold, batch_multicore, serve_hot, serve_churn (empty: the whole suite, one process each)")
	fs.Int64Var(&c.seed, "seed", c.seed, "workload seed: column pairs, page streams, appended rows")
	fs.Float64Var(&c.seconds, "seconds", c.seconds, "seconds one run measures")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
	aa := fs.Int("aa", 0, "A/A check: run the suite in two sets of N runs and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = *trace != 0
	if runtime.NumCPU() < maxProcs {
		fmt.Fprintf(stderr, "bench: needs at least %d CPUs, have %d\n", maxProcs, runtime.NumCPU())
		return 2
	}
	if c.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	switch {
	case *aa > 0:
		return runAA(c, *aa, stdout, stderr)
	case c.workload == "":
		return runSuite(c, stdout, stderr)
	}
	fn, ok := workloads[c.workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", c.workload)
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	o, err := runOne(c, fn)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", c.workload, err)
		return 1
	}
	if err := report(stdout, o, c.trace); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if o.Failed > 0 {
		return 1
	}
	return 0
}

// runOne runs a workload and adds what every workload reports the same way:
// peak RSS, the runtime's share, and (traced) the trace file.
func runOne(c config, fn func(config, *tracer) (*outcome, error)) (*outcome, error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var start runtime.MemStats
	runtime.ReadMemStats(&start)
	t0 := time.Now()
	o, err := fn(c, tr)
	if err != nil {
		return nil, err
	}
	runtimeMetrics(o.Ledger, start)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.Ledger.set("peak_rss_mb", rss)
	for name, n := range o.Ledger.samples {
		if n > 0 {
			o.Prov.Samples[name] = n
		}
	}
	if tr != nil {
		path, err := tr.write(c.outDir, c.workload, o.Prov)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: trace in %s, run took %s\n", c.workload, path, time.Since(t0).Round(time.Millisecond))
	}
	return o, nil
}
