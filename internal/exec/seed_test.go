package exec

import (
	"context"
	"slices"
	"testing"

	"gbmqo/internal/table"
)

func TestSetHashSeedRoundTrip(t *testing.T) {
	orig := HashSeed()
	defer SetHashSeed(orig)
	if prev := SetHashSeed(12345); prev != orig {
		t.Fatalf("SetHashSeed returned %d, want previous seed %d", prev, orig)
	}
	if got := HashSeed(); got != 12345 {
		t.Fatalf("HashSeed = %d after SetHashSeed(12345)", got)
	}
}

// TestGroupByIdenticalAcrossSeeds: the seed perturbs probe order only —
// results (values and first-appearance row order) are identical under any
// seed, which is what makes per-process randomization safe. It covers both
// key modes of the group table and every hash entry point.
func TestGroupByIdenticalAcrossSeeds(t *testing.T) {
	orig := HashSeed()
	defer SetHashSeed(orig)
	gov := NewGov(context.Background(), NewMemBudget(0))
	for _, tc := range []struct {
		name string
		src  *table.Table
		keys []int
		aggs []Agg
	}{
		{"packed", mkTable(5000, 3), []int{0, 1}, []Agg{CountStar(), {Kind: AggSum, Col: 2, Name: "sx"}}},
		{"wide", widthTable(3000, 300, repeatSize(5, 1<<13), 3), []int{0, 1, 2, 3, 4}, widthAggs(5)},
	} {
		if wide := newGroupHash(tc.src, tc.keys, nil, 0, false).mode == keyWide; wide != (tc.name == "wide") {
			t.Fatalf("%s: group table wide = %v", tc.name, wide)
		}
		q := []MultiQuery{{GroupCols: tc.keys, Aggs: tc.aggs, OutName: "g"}}
		var ref string
		for _, seed := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
			SetHashSeed(seed)
			out, err := GroupByHashGov(gov, tc.src, tc.keys, tc.aggs, "g")
			if err != nil {
				t.Fatalf("%s seed %#x: %v", tc.name, seed, err)
			}
			shared, _, err := sharedScan(gov, tc.src, q, 1)
			if err != nil {
				t.Fatalf("%s seed %#x: shared scan: %v", tc.name, seed, err)
			}
			par, _, err := groupBy(gov, tc.src, q, 2)
			if err != nil {
				t.Fatalf("%s seed %#x: shares: %v", tc.name, seed, err)
			}
			if ref == "" {
				ref = dumpTable(out)
			}
			for path, got := range map[string]*table.Table{"hash": out, "shared-scan": shared[0], "shares": par[0]} {
				if d := dumpTable(got); d != ref {
					t.Fatalf("%s seed %#x: %s output differs from seed 0\nwant:\n%s\ngot:\n%s", tc.name, seed, path, ref, d)
				}
			}
		}
	}
}

// TestPackedKeyLayoutFollowsSeed: on the packed path the slot a group lands
// in depends on the seed, so the per-process seed still defends against hash
// flooding; a fixed seed (0 included) reproduces the layout exactly.
func TestPackedKeyLayoutFollowsSeed(t *testing.T) {
	orig := HashSeed()
	defer SetHashSeed(orig)
	src := mkTable(2000, 9)
	layout := func(seed uint64) []groupSlot {
		SetHashSeed(seed)
		h := newGroupHash(src, []int{0, 1}, nil, 0, false)
		if h.mode != keyPacked {
			t.Fatal("mkTable keys should take the packed path")
		}
		for r := 0; r < src.NumRows(); r++ {
			h.groupOf(r)
		}
		return h.slots
	}
	if slices.Equal(layout(1), layout(2)) {
		t.Fatal("seeds 1 and 2 give the packed group table the same slot layout")
	}
	if !slices.Equal(layout(0), layout(0)) {
		t.Fatal("seed 0 packed layout is not deterministic")
	}
}

// TestHashRowSeedChangesLayout: different seeds must actually change hash
// values (the point of randomization — an adversary cannot precompute a
// colliding key set against an unknown seed).
func TestHashRowSeedChangesLayout(t *testing.T) {
	src := mkTable(64, 9)
	image, stride := src.RowImage()
	mkReader := func(seed uint64) rowReader {
		return rowReader{image: image, stride: stride, offs: []int{0, 4}, seed: seed}
	}
	a, b := mkReader(1), mkReader(2)
	diff := false
	for r := 0; r < src.NumRows(); r++ {
		if hashRow(a, r) != hashRow(b, r) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 1 and 2 hash every row identically")
	}
	// A zero-seed reader preserves the historical layout: hashing is a pure
	// function of the row bytes.
	z1, z2 := mkReader(0), mkReader(0)
	for r := 0; r < src.NumRows(); r++ {
		if hashRow(z1, r) != hashRow(z2, r) {
			t.Fatalf("zero-seed hash not deterministic at row %d", r)
		}
	}
}
