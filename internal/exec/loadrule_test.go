package exec

import (
	"fmt"
	"testing"

	"gbmqo/internal/datagen"
)

// TestHashTableLoadRule pins the group table's sizing on the 100k-row
// lineitem at four group counts, with no clock: the final slot count of an
// unsized and of a presized hash run is the smallest power of two the load
// rule admits (a quarter full up to sparseMaxSlots, three quarters beyond),
// RehashesAvoided counts the doublings from the default size to it, and the
// output is byte-identical to the sort kernel's. Under the old uniform 3/4
// load the two date sets would stop at 4 096 and 8 192 slots.
func TestHashTableLoadRule(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 100_000, Seed: 1})
	dates := []int{datagen.LShipDate, datagen.LCommitDate, datagen.LReceiptDate}
	aggs := []Agg{
		CountStar(),
		{Kind: AggSum, Col: datagen.LQuantity, Name: "sq"},
		{Kind: AggMax, Col: datagen.LShipMode, Name: "mx"},
	}
	cases := []struct {
		cols     []int
		groups   int
		slots    int
		rehashes int
	}{
		{[]int{datagen.LShipDate}, 120, 1 << 10, 0},
		{dates, 2520, 1 << 14, 4},
		{append([]int{datagen.LLineStatus}, dates...), 5040, 1 << 15, 5},
		{[]int{datagen.LPartKey, datagen.LSuppKey}, 99030, 1 << 18, 8},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("groups=%d", tc.groups), func(t *testing.T) {
			for _, hint := range []int{0, tc.groups} {
				q := MultiQuery{GroupCols: tc.cols, Aggs: aggs, OutName: "g", SizeHint: hint}
				st := newQueryState(li, q, nil, blockLen(li.NumRows()), newAccs(aggs, li))
				if err := scanShare(nil, []*queryState{st}, 0, li.NumRows(), nil); err != nil {
					t.Fatal(err)
				}
				groups, slots := len(st.ht.firstRows), len(st.ht.slots)
				if groups != tc.groups || slots != tc.slots {
					t.Fatalf("hint %d: %d groups in %d slots, want %d in %d", hint, groups, slots, tc.groups, tc.slots)
				}
				if sparse := slots <= sparseMaxSlots; sparse && groups*4 > slots || !sparse && groups*4 > slots*3 {
					t.Errorf("hint %d: %d groups overfill %d slots", hint, groups, slots)
				}
				if slots > groupHashInitSize && holds(slots/2, groups) {
					t.Errorf("hint %d: %d groups would fit %d slots, table has %d", hint, groups, slots/2, slots)
				}
			}
			out, ks, err := runGroupBy(nil, li, tc.cols, aggs, 1, tc.groups, false)
			if err != nil {
				t.Fatal(err)
			}
			if ks.Kind != KernelHash || ks.RehashesAvoided != tc.rehashes {
				t.Errorf("presized run: %v kernel, %d rehashes avoided; want hash, %d", ks.Kind, ks.RehashesAvoided, tc.rehashes)
			}
			if _, unsized, err := runGroupBy(nil, li, tc.cols, aggs, 1, 0, false); err != nil || unsized.RehashesAvoided != 0 {
				t.Errorf("unsized run: %d rehashes avoided (err %v), want 0", unsized.RehashesAvoided, err)
			}
			srt, err := GroupBySortGov(nil, li, tc.cols, aggs, "g")
			if err != nil {
				t.Fatal(err)
			}
			assertTablesIdentical(t, out, srt)
		})
	}
}

// TestHashPresizeHalvesUnderTightBudget: the load rule presizes 2 520
// expected groups to 16 384 slots; a budget that cannot hold them halves the
// presize until it fits, down to the default size, rather than failing
// admission.
func TestHashPresizeHalvesUnderTightBudget(t *testing.T) {
	li := datagen.Lineitem(datagen.LineitemOpts{Rows: 20_000, Seed: 1})
	cols := []int{datagen.LShipDate, datagen.LCommitDate, datagen.LReceiptDate}
	for _, tc := range []struct {
		limit int64
		slots int
	}{
		{0, 1 << 14},
		{(1 << 14) * slotBytes, 1 << 14},
		{(1<<14)*slotBytes - 1, 1 << 13},
		{(1 << 12) * slotBytes, 1 << 12},
		{1, groupHashInitSize},
	} {
		h := newGroupHash(li, cols, NewMemBudget(tc.limit), 2520, false)
		if len(h.slots) != tc.slots || h.initSize != tc.slots {
			t.Errorf("limit %d B: presized to %d slots (initSize %d), want %d", tc.limit, len(h.slots), h.initSize, tc.slots)
		}
	}
}
