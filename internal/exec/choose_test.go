package exec

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestChooseKernelGolden pins the chooser's decision surface as a golden
// table: one line per (rows, NDV, dense domain, workers, budget) point. CI
// diffs this file, so any drift in the kernel-choice policy is an explicit,
// reviewed change — run `go test ./internal/exec -run Golden -update` to
// accept a new policy.
func TestChooseKernelGolden(t *testing.T) {
	type pt struct {
		rows, domain, workers int
		ndv                   float64
		hashState             int64
		limit                 int64 // budget limit, 0 = unlimited
	}
	points := []pt{
		// Trivial inputs.
		{rows: 0, domain: 0, workers: 4, ndv: 100},
		{rows: 100000, domain: 0, workers: 4, ndv: 100},
		// Sequential: dense under the same domain gate.
		{rows: 100000, domain: 64, workers: 1, ndv: 50},
		{rows: 1000000, domain: 4096, workers: 1, ndv: 4000},
		{rows: 100000, domain: 0, workers: 1, ndv: 100000},
		{rows: 200000, domain: 0, workers: 1, ndv: 50000},
		// The 8×-rows edge: a domain of exactly 8× the rows is dense, one more is hash.
		{rows: 1000, domain: 8000, workers: 1, ndv: 900},
		{rows: 1000, domain: 8001, workers: 1, ndv: 900},
		// A tiny table is dense while the domain is small outright.
		{rows: 10, domain: 4096, workers: 1, ndv: 10},
		{rows: 10, domain: 4097, workers: 1, ndv: 10},
		// A parallel request too small for one share per worker runs sequential dense.
		{rows: 30000, domain: 64, workers: 4, ndv: 50},
		// Parallel small-domain inputs: dense once rows amortize the arrays.
		{rows: 40000, domain: 64, workers: 4, ndv: 50},
		{rows: 100000, domain: 64, workers: 4, ndv: 50},
		{rows: 100000, domain: 4096, workers: 4, ndv: 4000},
		{rows: 100000, domain: 500000, workers: 4, ndv: 400000},
		{rows: 100000, domain: 900000, workers: 4, ndv: 800000},
		// Parallel high-NDV outside the dense domain: parallel hash, presized
		// when stats are threaded.
		{rows: 200000, domain: 0, workers: 4, ndv: 50000},
		{rows: 200000, domain: 0, workers: 4, ndv: 0},
		{rows: 200000, domain: 0, workers: 4, ndv: 2000},
		// Tight budgets walk down the ladder.
		{rows: 100000, domain: 64, workers: 4, ndv: 50, limit: 1024},
		{rows: 100000, domain: 4096, workers: 1, ndv: 4000, limit: 1024},
		{rows: 200000, domain: 0, workers: 4, ndv: 50000, limit: 1024},
		{rows: 200000, domain: 0, workers: 1, ndv: 50000, hashState: 1 << 20, limit: 1 << 10},
		{rows: 200000, domain: 0, workers: 1, ndv: 50000, hashState: 1 << 10, limit: 1 << 20},
		// Presize hint clamps to the row count.
		{rows: 1000, domain: 0, workers: 1, ndv: 100000},
	}
	var b strings.Builder
	for _, p := range points {
		var budget *MemBudget
		if p.limit > 0 {
			budget = NewMemBudget(p.limit)
		}
		c := ChooseKernel(ChooserInput{
			Rows:           p.rows,
			GroupCols:      2,
			NDV:            p.ndv,
			DenseDomain:    p.domain,
			Workers:        p.workers,
			HashStateBytes: p.hashState,
			NAggs:          1,
			Budget:         budget,
		})
		fmt.Fprintf(&b, "rows=%-8d ndv=%-8.0f domain=%-7d workers=%d hashState=%-8d limit=%-8d -> %-5v w=%d sizeHint=%-6d fallbacks=%d\n",
			p.rows, p.ndv, p.domain, p.workers, p.hashState, p.limit,
			c.Kind, c.Workers, c.SizeHint, len(c.Fallbacks))
	}
	got := b.String()
	path := filepath.Join("testdata", "kernel_choices.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("kernel-choice table drifted from %s:\n--- got ---\n%s--- want ---\n%s(run with -update to accept)", path, got, want)
	}
}

// TestChooseKernelLadderSemantics pins the ladder properties the golden file
// cannot express: fallbacks carry the rejected rung, a zero-worker request is
// sequential and takes dense over a small domain, and the parallel dense rung
// keeps its row-count gate.
func TestChooseKernelLadderSemantics(t *testing.T) {
	base := ChooserInput{Rows: 200000, GroupCols: 2, NDV: 50000, Workers: 4, NAggs: 1}

	tight := base
	tight.DenseDomain = 64
	tight.Budget = NewMemBudget(1024)
	c := ChooseKernel(tight)
	if c.Kind != KernelHash || c.Workers != 4 {
		t.Fatalf("over-budget dense request chose %v with %d workers, want parallel hash", c.Kind, c.Workers)
	}
	if len(c.Fallbacks) != 1 || c.Fallbacks[0].Kind != KernelDense {
		t.Errorf("budget-rejected dense not recorded in fallbacks: %+v", c.Fallbacks)
	}

	if c := ChooseKernel(base); c.Kind != KernelHash || c.Workers != 4 || c.SizeHint != 50000 {
		t.Errorf("parallel high-NDV request chose %v with %d workers, hint %d; want parallel hash presized to the NDV", c.Kind, c.Workers, c.SizeHint)
	}

	seq := base
	seq.Workers = 0
	seq.DenseDomain = 64
	if c := ChooseKernel(seq); c.Kind != KernelDense || c.Workers != 1 {
		t.Errorf("sequential small-domain request chose %v with %d workers, want sequential dense", c.Kind, c.Workers)
	}
	seq.DenseDomain = 0
	if c := ChooseKernel(seq); c.Kind != KernelHash || c.Workers != 1 {
		t.Errorf("sequential high-NDV request chose %v with %d workers, want sequential hash", c.Kind, c.Workers)
	}

	small := ChooserInput{Rows: denseMinRows - 1, GroupCols: 2, NDV: 50, DenseDomain: 64, Workers: 4, NAggs: 1}
	if c := ChooseKernel(small); c.Kind == KernelDense || c.Workers < 2 {
		t.Errorf("parallel request below denseMinRows chose %v with %d workers, want parallel hash", c.Kind, c.Workers)
	}

	spill := ChooserInput{Rows: 200000, GroupCols: 2, NDV: 50000, Workers: 1,
		HashStateBytes: 1 << 20, Budget: NewMemBudget(1 << 12), NAggs: 1}
	if c := ChooseKernel(spill); c.Kind != KernelSort {
		t.Errorf("over-budget hash state chose %v, want sort", c.Kind)
	}
}
