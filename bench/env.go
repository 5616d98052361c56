package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// Fixed environment, sized for a 2-core sandbox. The dataset is identical on
// every run; -seed drives only the workload (which column pairs, the page
// streams, the appended rows).
const (
	datasetKind = "lineitem"
	datasetSeed = 1
	tableName   = "lineitem"
	maxProcs    = 2
	clients     = 2
	shards      = 2
	fsyncPolicy = "always"
)

// provenance says what produced an output: enough to run it again.
type provenance struct {
	Command     string  `json:"command"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"workload_seed"`
	Seconds     float64 `json:"measured_seconds"`
	Traced      bool    `json:"traced"`
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	CPUModel    string  `json:"cpu_model"`
	Dataset     string  `json:"dataset"`
	DatasetRows int     `json:"dataset_rows"`
	DatasetSeed int64   `json:"dataset_seed"`
	Fsync       string  `json:"fsync_policy"`
	CacheBytes  int64   `json:"cache_bytes"`
	Clients     int     `json:"clients"`
	Shards      int     `json:"shards"`
	Setups      int     `json:"setups"`
	WarmUp      string  `json:"warm_up"`
	// Samples is the sample count behind every percentile reported.
	Samples map[string]int `json:"samples"`
}

func newProvenance(c config) provenance {
	return provenance{
		Command: fmt.Sprintf("go run -C bench . --workload %s --seed %d --seconds %g --trace %d",
			c.workload, c.seed, c.seconds, b2i(c.trace)),
		Workload:    c.workload,
		Seed:        c.seed,
		Seconds:     c.seconds,
		Traced:      c.trace,
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		Dataset:     datasetKind,
		DatasetRows: c.rows,
		DatasetSeed: datasetSeed,
		Fsync:       "n/a",
		Clients:     1,
		Setups:      c.setups,
		Samples:     map[string]int{},
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: VmHWM not found in /proc/self/status")
}

// resetPeakRSS makes VmHWM start over from the current resident set, so
// peak_rss_mb is the measured workload's peak and not the garbage of the
// repeated set-ups before it. Where the kernel refuses (the file is not
// writable in every sandbox) the peak simply covers the whole process.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeMetrics records the Go runtime's share of the run: GC cycles and
// pauses since start, and the heap at the end.
func runtimeMetrics(l *ledger, start runtime.MemStats) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	l.set("runtime.gc_cycles", float64(end.NumGC-start.NumGC))
	l.set("runtime.gc_pause_ms_total", float64(end.PauseTotalNs-start.PauseTotalNs)/1e6)
	// PauseNs is a ring of the last 256 pauses: cycle k's is at (k-1)%256.
	lo, maxPause := start.NumGC, uint64(0)
	if end.NumGC-lo > 256 {
		lo = end.NumGC - 256
	}
	for i := lo; i < end.NumGC; i++ {
		maxPause = max(maxPause, end.PauseNs[i%256])
	}
	l.set("runtime.gc_pause_ms_max", float64(maxPause)/1e6)
	l.set("runtime.heap_mb_end", float64(end.HeapAlloc)/(1<<20))
}
