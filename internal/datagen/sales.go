package datagen

import (
	"fmt"

	"gbmqo/internal/table"
)

// SalesOpts configures the SALES-like generator. The paper's SALES dataset is
// a proprietary 24M-row sales warehouse with 15 columns used; we reproduce its
// structure as a denormalized star: store and product hierarchies (functional
// dependencies store→state→region and product→brand→category make the
// hierarchy column groups highly mergeable), a handful of low-NDV flags, and
// medium-NDV date/person columns.
type SalesOpts struct {
	Rows int
	Seed int64
}

// Sales column ordinals.
const (
	SStoreID = iota
	SStoreState
	SStoreRegion
	SProductID
	SProductBrand
	SProductCategory
	SCustomerSegment
	SPromoFlag
	SChannel
	SPayment
	SSaleDate
	SShipMode
	SQty
	SPriceBand
	SSalesperson
	salesNumCols
)

var (
	salesRegions  = []string{"NORTH", "SOUTH", "EAST", "WEST", "CENTRAL", "NE", "NW", "SE", "SW", "INTL"}
	salesSegments = []string{"CONSUMER", "CORPORATE", "HOME OFFICE", "SMALL BIZ", "GOVERNMENT"}
	salesChannels = []string{"STORE", "WEB", "PHONE", "CATALOG"}
	salesPayments = []string{"CASH", "CREDIT", "DEBIT", "CHECK", "GIFT", "FINANCE"}
	salesShip     = []string{"GROUND", "AIR", "FREIGHT", "PICKUP", "COURIER"}
)

// SalesDefs returns the sales schema.
func SalesDefs() []table.ColumnDef {
	return []table.ColumnDef{
		{Name: "store_id", Typ: table.TInt64},
		{Name: "store_state", Typ: table.TString},
		{Name: "store_region", Typ: table.TString},
		{Name: "product_id", Typ: table.TInt64},
		{Name: "product_brand", Typ: table.TString},
		{Name: "product_category", Typ: table.TString},
		{Name: "customer_segment", Typ: table.TString},
		{Name: "promo_flag", Typ: table.TInt64},
		{Name: "channel", Typ: table.TString},
		{Name: "payment", Typ: table.TString},
		{Name: "sale_date", Typ: table.TDate},
		{Name: "ship_mode", Typ: table.TString},
		{Name: "qty", Typ: table.TInt64},
		{Name: "price_band", Typ: table.TInt64},
		{Name: "salesperson", Typ: table.TInt64},
	}
}

// Sales generates the SALES-like table.
func Sales(opts SalesOpts) *table.Table {
	if opts.Rows <= 0 {
		opts.Rows = 100_000
	}
	r := rng(opts.Seed ^ 0x5a1e5)
	const (
		stores   = 600
		products = 3000
		brands   = 180
		cats     = 25
		people   = 400
		days     = 730
	)
	// Hierarchies as fixed mappings: store → state → region, product → brand →
	// category. Functional dependencies mean e.g. |(store_id, store_state)| =
	// |store_id|, which is what makes hierarchy merges nearly free.
	storeState := make([]int, stores)
	for i := range storeState {
		storeState[i] = r.Intn(50)
	}
	stateRegion := make([]int, 50)
	for i := range stateRegion {
		stateRegion[i] = r.Intn(len(salesRegions))
	}
	productBrand := make([]int, products)
	for i := range productBrand {
		productBrand[i] = r.Intn(brands)
	}
	brandCat := make([]int, brands)
	for i := range brandCat {
		brandCat[i] = r.Intn(cats)
	}
	t := table.New("sales", SalesDefs())
	t.Grow(opts.Rows)
	for i := 0; i < opts.Rows; i++ {
		store := r.Intn(stores)
		prod := r.Intn(products)
		state := storeState[store]
		brand := productBrand[prod]
		t.AppendRow(
			table.Int(int64(store)),
			table.Str(fmt.Sprintf("ST%02d", state)),
			table.Str(salesRegions[stateRegion[state]]),
			table.Int(int64(prod)),
			table.Str(fmt.Sprintf("BR%03d", brand)),
			table.Str(fmt.Sprintf("CAT%02d", brandCat[brand])),
			table.Str(pick(r, salesSegments)),
			table.Int(int64(r.Intn(2))),
			table.Str(pick(r, salesChannels)),
			table.Str(pick(r, salesPayments)),
			table.Date(int64(r.Intn(days))),
			table.Str(pick(r, salesShip)),
			table.Int(int64(1+r.Intn(20))),
			table.Int(int64(r.Intn(12))),
			table.Int(int64(r.Intn(people))),
		)
	}
	return t
}

// SalesSC returns all 15 single-column workload ordinals.
func SalesSC() []int {
	out := make([]int, salesNumCols)
	for i := range out {
		out[i] = i
	}
	return out
}
