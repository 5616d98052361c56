package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in a process of its own (so peak_rss_mb is the
// workload's, not the suite's), passes its output through, and returns the
// result object from its last stdout line.
func runChild(c config, workload string, seed int64, stdout, stderr io.Writer) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(b2i(c.trace)))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	return line, runErr
}

// runSuite runs every workload once, each in its own process.
func runSuite(c config, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloadOrder {
		fmt.Fprintf(stdout, "workload %s\n", w)
		if _, err := runChild(c, w, c.seed, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
		}
	}
	return code
}

// exactCounts are the per-layer counts that repeat bit for bit for a given
// seed. engine.rows_scanned is one on the batch workloads only: on the serve
// workloads it is a window's delta under concurrent clients.
var exactCounts = []string{
	"core.optimizer_calls", "core.merge_evals", "core.pruned_pairs", "core.plan_cost_ratio",
	"engine.rows_scanned", "engine.temp_tables", "engine.work_ratio", "shard.rows_scanned",
	"wal.bytes_per_row", "snapshot.bytes_per_row", "loadgen.schedule_fnv",
}

// exactDiffs names the exact counts that two traced runs of a workload on the
// same seed disagree on.
func exactDiffs(workload string, a, b map[string]outMetric) []string {
	var diffs []string
	for _, name := range exactCounts {
		if name == "engine.rows_scanned" && strings.HasPrefix(workload, "serve_") {
			continue
		}
		if a[name].Value != b[name].Value {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", name, a[name].Value, b[name].Value))
		}
	}
	return diffs
}

// runAA is the A/A check: the same code measured in two sets of n runs per
// workload. Run i of either set uses seed c.seed+i, so the sets are the same
// workload, and the sets' runs alternate, so the host's drift falls on both.
// Per workload and end-to-end metric it prints both medians, each set's
// spread (inter-quartile distance over median, as the driver computes it) and
// the bound, and fails when a spread exceeds its bound (setup_s excepted: it
// is compared by median only), when the second median is worse than the
// first by more than the bound, when one traced run per set on seed c.seed
// disagree on an exact count, or when any operation failed. With -workload it
// checks that workload alone.
func runAA(c config, n int, stdout, stderr io.Writer) int {
	bad := 0
	list := workloadOrder
	if c.workload != "" {
		list = []string{c.workload}
	}
	fmt.Fprintf(stdout, "%-16s %-12s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "median_a", "median_b", "spread_a", "spread_b", "bound", "verdict")
	for _, w := range list {
		sets := [2]map[string][]float64{{}, {}}
		c.trace = false
		for i := 0; i < n; i++ {
			seed := c.seed + int64(i)
			for s := range sets {
				line, err := runChild(c, w, seed, io.Discard, stderr)
				if err != nil || !line.Correct {
					fmt.Fprintf(stdout, "%-16s set %c seed %d: failed=%d of %d: %v\n", w, 'a'+s, seed, line.Failed, line.Attempted, err)
					bad++
					continue
				}
				fmt.Fprintf(stdout, "run %-16s set %c seed %-3d", w, 'a'+s, seed)
				for _, d := range endToEnd {
					sets[s][d.Name] = append(sets[s][d.Name], line.Metrics[d.Name].Value)
					fmt.Fprintf(stdout, " %s=%.4g", d.Name, line.Metrics[d.Name].Value)
				}
				fmt.Fprintln(stdout)
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "MEDIANS DIFFER"
			}
			if d.Name != "setup_s" && max(spread(a), spread(b)) > d.Bound {
				verdict = "SPREAD OVER BOUND"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-12s %12.4f %12.4f %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w, d.Name, ma, mb, spread(a)*100, spread(b)*100, d.Bound*100, verdict)
		}
		c.trace = true
		var traced [2]resultLine
		var err error
		for s := range traced {
			if traced[s], err = runChild(c, w, c.seed, io.Discard, stderr); err != nil || !traced[s].Correct {
				fmt.Fprintf(stdout, "%-16s traced run, set %c: failed=%d of %d: %v\n", w, 'a'+s, traced[s].Failed, traced[s].Attempted, err)
				bad++
			}
		}
		if diffs := exactDiffs(w, traced[0].Metrics, traced[1].Metrics); len(diffs) > 0 {
			bad++
			fmt.Fprintf(stdout, "%-16s EXACT COUNTS DIFFER: %s\n", w, strings.Join(diffs, "; "))
		} else {
			fmt.Fprintf(stdout, "%-16s exact counts identical in both sets' traced run (seed %d)\n", w, c.seed)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "A/A check: %d problems\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "A/A check: every spread and median within its bound, exact counts identical, zero failed operations")
	return 0
}
