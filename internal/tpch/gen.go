// Package tpch provides a deterministic TPC-H-shaped data generator and
// the query workloads of the paper's evaluation: the Q1/Q6 microbenchmark
// queries of §4.1 and the 22-query throughput mix of §4.2.
//
// The generator reproduces the schema (8 tables, 61 columns), the row
// multipliers and the value distributions that drive the paper's I/O
// patterns: which columns are scanned, their relative compressed widths,
// and predicate selectivities. Column widths model light columnar
// compression, so a chunk of tuples maps to very different page counts
// per column (§2). Text payloads (comments, names) carry realistic widths
// without storing bulky strings.
package tpch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/storage"
)

// Scale multipliers per TPC-H: rows at scale factor 1.
const (
	baseSupplier = 10_000
	basePart     = 200_000
	baseCustomer = 150_000
	baseOrders   = 1_500_000
)

// Epoch is day zero of the date encoding (1992-01-01). Dates are int64
// day counts relative to it; TPC-H order dates span about 7 years.
const (
	DateMin = 0    // 1992-01-01
	DateMax = 2556 // 1998-12-31 (two leap years in range)
)

// Date encodes year/month/day (1992..1998) as days since the epoch using
// a proleptic Gregorian day count.
func Date(y, m, d int) int64 {
	return civilDays(y, m, d) - civilDays(1992, 1, 1)
}

// civilDays counts days since an arbitrary fixed origin (Howard Hinnant's
// days_from_civil algorithm).
func civilDays(y, m, d int) int64 {
	if m <= 2 {
		y--
	}
	var era int64
	ye := int64(y)
	if ye >= 0 {
		era = ye / 400
	} else {
		era = (ye - 399) / 400
	}
	yoe := ye - era*400
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe
}

// DB holds the generated tables and their committed snapshots.
type DB struct {
	Catalog *storage.Catalog
	SF      float64
	snaps   map[string]*storage.Snapshot
}

// Snapshot returns the committed snapshot of the named table.
func (db *DB) Snapshot(name string) *storage.Snapshot {
	s, ok := db.snaps[name]
	if !ok {
		panic(fmt.Sprintf("tpch: unknown table %q", name))
	}
	return s
}

// Col returns the column index of table.column.
func (db *DB) Col(table, col string) int {
	i := db.Snapshot(table).Table().Schema.ColIndex(col)
	if i < 0 {
		panic(fmt.Sprintf("tpch: unknown column %s.%s", table, col))
	}
	return i
}

var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs    = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers   = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX",
		"MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG",
		"JUMBO BAG", "JUMBO BOX", "JUMBO PACK", "WRAP CASE", "WRAP BOX"}
	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
)

// GenOptions parameterizes generation beyond scale factor and seed.
type GenOptions struct {
	// ClusteredShipdate sorts lineitem by l_shipdate before load (a
	// stable sort, so generation stays deterministic). TPC-H generates
	// shipdates nearly uniformly across the date domain, which leaves
	// every zone-map block spanning the whole domain and nothing to
	// prune; clustering is the physical structure MinMax data skipping
	// exploits (Vectorwise tables are typically date-clustered).
	ClusteredShipdate bool
}

// Generate builds all eight tables at the given scale factor. The same
// seed always yields identical data.
func Generate(sf float64, seed int64) *DB {
	return GenerateOpt(sf, seed, GenOptions{})
}

// GenerateOpt is Generate with generation options; Generate(sf, seed) is
// GenerateOpt(sf, seed, GenOptions{}) and stays byte-identical to the
// historical generator.
func GenerateOpt(sf float64, seed int64, opt GenOptions) *DB {
	if sf <= 0 {
		panic("tpch: scale factor must be positive")
	}
	db := &DB{Catalog: storage.NewCatalog(), SF: sf, snaps: make(map[string]*storage.Snapshot)}
	rng := rand.New(rand.NewSource(seed))
	db.genRegion()
	db.genNation()
	nSupp := scaled(baseSupplier, sf)
	nPart := scaled(basePart, sf)
	nCust := scaled(baseCustomer, sf)
	nOrd := scaled(baseOrders, sf)
	db.genSupplier(rng, nSupp)
	db.genPart(rng, nPart)
	db.genPartsupp(rng, nPart, nSupp)
	db.genCustomer(rng, nCust)
	db.genOrdersAndLineitem(rng, nOrd, nCust, nPart, nSupp, opt)
	return db
}

// sortColumnsBy reorders every column of d by ascending values of int64
// column col, using a stable permutation so equal keys keep generation
// order (determinism).
func sortColumnsBy(d *storage.ColumnData, col int) {
	key := d.I64[col]
	perm := make([]int, len(key))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return key[perm[a]] < key[perm[b]] })
	for c, vs := range d.I64 {
		out := make([]int64, len(vs))
		for i, p := range perm {
			out[i] = vs[p]
		}
		d.I64[c] = out
	}
	for c, vs := range d.F64 {
		out := make([]float64, len(vs))
		for i, p := range perm {
			out[i] = vs[p]
		}
		d.F64[c] = out
	}
	for c, vs := range d.Str {
		out := make([]string, len(vs))
		for i, p := range perm {
			out[i] = vs[p]
		}
		d.Str[c] = out
	}
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

func (db *DB) create(name string, schema storage.Schema, data *storage.ColumnData) {
	t, err := db.Catalog.CreateTable(name, schema)
	if err != nil {
		panic(err)
	}
	s, err := t.Master().Append(data)
	if err != nil {
		panic(err)
	}
	if err := s.Commit(); err != nil {
		panic(err)
	}
	db.snaps[name] = s
}

func (db *DB) genRegion() {
	schema := storage.Schema{
		{Name: "r_regionkey", Type: storage.Int64, Width: 1},
		{Name: "r_name", Type: storage.String, Width: 1},
		{Name: "r_comment", Type: storage.String, Width: 32},
	}
	d := storage.NewColumnData()
	for i, name := range regionNames {
		d.I64[0] = append(d.I64[0], int64(i))
		d.Str[1] = append(d.Str[1], name)
		d.Str[2] = append(d.Str[2], "region comment")
	}
	db.create("region", schema, d)
}

func (db *DB) genNation() {
	schema := storage.Schema{
		{Name: "n_nationkey", Type: storage.Int64, Width: 1},
		{Name: "n_name", Type: storage.String, Width: 2},
		{Name: "n_regionkey", Type: storage.Int64, Width: 1},
		{Name: "n_comment", Type: storage.String, Width: 32},
	}
	d := storage.NewColumnData()
	for i, name := range nationNames {
		d.I64[0] = append(d.I64[0], int64(i))
		d.Str[1] = append(d.Str[1], name)
		d.I64[2] = append(d.I64[2], nationRegion[i])
		d.Str[3] = append(d.Str[3], "nation comment")
	}
	db.create("nation", schema, d)
}

func (db *DB) genSupplier(rng *rand.Rand, n int) {
	schema := storage.Schema{
		{Name: "s_suppkey", Type: storage.Int64, Width: 4},
		{Name: "s_name", Type: storage.String, Width: 8},
		{Name: "s_address", Type: storage.String, Width: 12},
		{Name: "s_nationkey", Type: storage.Int64, Width: 1},
		{Name: "s_phone", Type: storage.String, Width: 8},
		{Name: "s_acctbal", Type: storage.Float64, Width: 4},
		{Name: "s_comment", Type: storage.String, Width: 32},
	}
	d := storage.NewColumnData()
	for i := 0; i < n; i++ {
		nk := int64(rng.Intn(25))
		d.I64[0] = append(d.I64[0], int64(i+1))
		d.Str[1] = append(d.Str[1], fmt.Sprintf("Supplier#%09d", i+1))
		d.Str[2] = append(d.Str[2], "addr")
		d.I64[3] = append(d.I64[3], nk)
		d.Str[4] = append(d.Str[4], fmt.Sprintf("%d-555-%04d", nk+10, i%10000))
		d.F64[5] = append(d.F64[5], float64(rng.Intn(2000000))/100-1000)
		if rng.Intn(100) < 1 {
			d.Str[6] = append(d.Str[6], "blah Customer blah Complaints blah")
		} else {
			d.Str[6] = append(d.Str[6], "supplier comment")
		}
	}
	db.create("supplier", schema, d)
}

func (db *DB) genPart(rng *rand.Rand, n int) {
	schema := storage.Schema{
		{Name: "p_partkey", Type: storage.Int64, Width: 4},
		{Name: "p_name", Type: storage.String, Width: 16},
		{Name: "p_mfgr", Type: storage.String, Width: 1},
		{Name: "p_brand", Type: storage.String, Width: 1},
		{Name: "p_type", Type: storage.String, Width: 1},
		{Name: "p_size", Type: storage.Int64, Width: 1},
		{Name: "p_container", Type: storage.String, Width: 1},
		{Name: "p_retailprice", Type: storage.Float64, Width: 4},
		{Name: "p_comment", Type: storage.String, Width: 16},
	}
	names := []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "green", "forest"}
	d := storage.NewColumnData()
	for i := 0; i < n; i++ {
		mfgr := rng.Intn(5) + 1
		brand := mfgr*10 + rng.Intn(5) + 1
		d.I64[0] = append(d.I64[0], int64(i+1))
		d.Str[1] = append(d.Str[1], names[rng.Intn(len(names))]+" "+names[rng.Intn(len(names))])
		d.Str[2] = append(d.Str[2], fmt.Sprintf("Manufacturer#%d", mfgr))
		d.Str[3] = append(d.Str[3], fmt.Sprintf("Brand#%d", brand))
		d.Str[4] = append(d.Str[4], typeSyl1[rng.Intn(6)]+" "+typeSyl2[rng.Intn(5)]+" "+typeSyl3[rng.Intn(5)])
		d.I64[5] = append(d.I64[5], int64(rng.Intn(50)+1))
		d.Str[6] = append(d.Str[6], containers[rng.Intn(len(containers))])
		d.F64[7] = append(d.F64[7], 900+float64((i+1)%200)+float64(rng.Intn(100))/100)
		d.Str[8] = append(d.Str[8], "part comment")
	}
	db.create("part", schema, d)
}

func (db *DB) genPartsupp(rng *rand.Rand, nPart, nSupp int) {
	schema := storage.Schema{
		{Name: "ps_partkey", Type: storage.Int64, Width: 4},
		{Name: "ps_suppkey", Type: storage.Int64, Width: 4},
		{Name: "ps_availqty", Type: storage.Int64, Width: 2},
		{Name: "ps_supplycost", Type: storage.Float64, Width: 4},
		{Name: "ps_comment", Type: storage.String, Width: 48},
	}
	d := storage.NewColumnData()
	for p := 1; p <= nPart; p++ {
		for j := 0; j < 4; j++ {
			sk := int64((p+j*(nSupp/4+1))%nSupp) + 1
			d.I64[0] = append(d.I64[0], int64(p))
			d.I64[1] = append(d.I64[1], sk)
			d.I64[2] = append(d.I64[2], int64(rng.Intn(9999)+1))
			d.F64[3] = append(d.F64[3], float64(rng.Intn(100000))/100+1)
			d.Str[4] = append(d.Str[4], "partsupp comment")
		}
	}
	db.create("partsupp", schema, d)
}

func (db *DB) genCustomer(rng *rand.Rand, n int) {
	schema := storage.Schema{
		{Name: "c_custkey", Type: storage.Int64, Width: 4},
		{Name: "c_name", Type: storage.String, Width: 8},
		{Name: "c_address", Type: storage.String, Width: 12},
		{Name: "c_nationkey", Type: storage.Int64, Width: 1},
		{Name: "c_phone", Type: storage.String, Width: 8},
		{Name: "c_acctbal", Type: storage.Float64, Width: 4},
		{Name: "c_mktsegment", Type: storage.String, Width: 1},
		{Name: "c_comment", Type: storage.String, Width: 32},
	}
	d := storage.NewColumnData()
	for i := 0; i < n; i++ {
		nk := int64(rng.Intn(25))
		d.I64[0] = append(d.I64[0], int64(i+1))
		d.Str[1] = append(d.Str[1], fmt.Sprintf("Customer#%09d", i+1))
		d.Str[2] = append(d.Str[2], "addr")
		d.I64[3] = append(d.I64[3], nk)
		d.Str[4] = append(d.Str[4], fmt.Sprintf("%02d-555-%04d", nk+10, i%10000))
		d.F64[5] = append(d.F64[5], float64(rng.Intn(2000000))/100-1000)
		d.Str[6] = append(d.Str[6], segments[rng.Intn(5)])
		d.Str[7] = append(d.Str[7], "customer comment")
	}
	db.create("customer", schema, d)
}

func (db *DB) genOrdersAndLineitem(rng *rand.Rand, nOrd, nCust, nPart, nSupp int, opt GenOptions) {
	oSchema := storage.Schema{
		{Name: "o_orderkey", Type: storage.Int64, Width: 4},
		{Name: "o_custkey", Type: storage.Int64, Width: 4},
		{Name: "o_orderstatus", Type: storage.String, Width: 1},
		{Name: "o_totalprice", Type: storage.Float64, Width: 4},
		{Name: "o_orderdate", Type: storage.Int64, Width: 2},
		{Name: "o_orderpriority", Type: storage.String, Width: 1},
		{Name: "o_clerk", Type: storage.String, Width: 4},
		{Name: "o_shippriority", Type: storage.Int64, Width: 1},
		{Name: "o_comment", Type: storage.String, Width: 32},
	}
	lSchema := storage.Schema{
		{Name: "l_orderkey", Type: storage.Int64, Width: 4},
		{Name: "l_partkey", Type: storage.Int64, Width: 4},
		{Name: "l_suppkey", Type: storage.Int64, Width: 4},
		{Name: "l_linenumber", Type: storage.Int64, Width: 1},
		{Name: "l_quantity", Type: storage.Float64, Width: 2},
		{Name: "l_extendedprice", Type: storage.Float64, Width: 4},
		{Name: "l_discount", Type: storage.Float64, Width: 1},
		{Name: "l_tax", Type: storage.Float64, Width: 1},
		{Name: "l_returnflag", Type: storage.String, Width: 1},
		{Name: "l_linestatus", Type: storage.String, Width: 1},
		{Name: "l_shipdate", Type: storage.Int64, Width: 2},
		{Name: "l_commitdate", Type: storage.Int64, Width: 2},
		{Name: "l_receiptdate", Type: storage.Int64, Width: 2},
		{Name: "l_shipinstruct", Type: storage.String, Width: 1},
		{Name: "l_shipmode", Type: storage.String, Width: 1},
		{Name: "l_comment", Type: storage.String, Width: 16},
	}
	// Orders carry 1-7 lines uniformly: 4*nOrd lines expected, and four
	// standard deviations (sd = 2*sqrt(nOrd)) of headroom overshoot by
	// under 1%; a miss just grows once. Values are appended through local
	// slices and installed in the ColumnData at the end.
	nLine := 4*nOrd + 8*int(math.Sqrt(float64(nOrd))) + 7
	ints := func(n int) []int64 { return make([]int64, 0, n) }
	floats := func(n int) []float64 { return make([]float64, 0, n) }
	strs := func(n int) []string { return make([]string, 0, n) }
	lOrderkey, lPartkey, lSuppkey, lLinenumber := ints(nLine), ints(nLine), ints(nLine), ints(nLine)
	lQuantity, lPrice, lDiscount, lTax := floats(nLine), floats(nLine), floats(nLine), floats(nLine)
	lReturnflag, lLinestatus := strs(nLine), strs(nLine)
	lShipdate, lCommitdate, lReceiptdate := ints(nLine), ints(nLine), ints(nLine)
	lShipinstruct, lShipmode, lComment := strs(nLine), strs(nLine), strs(nLine)
	oOrderkey, oCustkey, oStatus, oTotalprice := ints(nOrd), ints(nOrd), strs(nOrd), floats(nOrd)
	oOrderdate, oPriority, oClerk := ints(nOrd), strs(nOrd), strs(nOrd)
	oShippriority, oComment := ints(nOrd), strs(nOrd)
	currentDate := Date(1995, 6, 17)
	for o := 0; o < nOrd; o++ {
		okey := int64(o + 1)
		odate := int64(rng.Intn(DateMax - 151))
		nl := rng.Intn(7) + 1
		var total float64
		status := "O"
		allF := true
		anyF := false
		for ln := 0; ln < nl; ln++ {
			pk := int64(rng.Intn(nPart) + 1)
			sk := int64(rng.Intn(nSupp) + 1)
			qty := float64(rng.Intn(50) + 1)
			price := qty * (900 + float64(pk%200) + 1)
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := odate + int64(rng.Intn(121)+1)
			commit := odate + int64(rng.Intn(61)+30)
			receipt := ship + int64(rng.Intn(30)+1)
			rf := "N"
			if receipt <= currentDate {
				if rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			ls := "O"
			if ship <= currentDate {
				ls = "F"
				anyF = true
			} else {
				allF = false
			}
			lOrderkey = append(lOrderkey, okey)
			lPartkey = append(lPartkey, pk)
			lSuppkey = append(lSuppkey, sk)
			lLinenumber = append(lLinenumber, int64(ln+1))
			lQuantity = append(lQuantity, qty)
			lPrice = append(lPrice, price)
			lDiscount = append(lDiscount, disc)
			lTax = append(lTax, tax)
			lReturnflag = append(lReturnflag, rf)
			lLinestatus = append(lLinestatus, ls)
			lShipdate = append(lShipdate, ship)
			lCommitdate = append(lCommitdate, commit)
			lReceiptdate = append(lReceiptdate, receipt)
			lShipinstruct = append(lShipinstruct, instructs[rng.Intn(4)])
			lShipmode = append(lShipmode, shipModes[rng.Intn(7)])
			lComment = append(lComment, "lineitem comment")
			total += price * (1 - disc) * (1 + tax)
		}
		if allF && anyF {
			status = "F"
		} else if anyF {
			status = "P"
		}
		oOrderkey = append(oOrderkey, okey)
		oCustkey = append(oCustkey, int64(rng.Intn(nCust)+1))
		oStatus = append(oStatus, status)
		oTotalprice = append(oTotalprice, total)
		oOrderdate = append(oOrderdate, odate)
		oPriority = append(oPriority, priorities[rng.Intn(5)])
		oClerk = append(oClerk, fmt.Sprintf("Clerk#%06d", rng.Intn(1000)))
		oShippriority = append(oShippriority, 0)
		oComment = append(oComment, "order comment")
	}
	od := &storage.ColumnData{
		I64: map[int][]int64{0: oOrderkey, 1: oCustkey, 4: oOrderdate, 7: oShippriority},
		F64: map[int][]float64{3: oTotalprice},
		Str: map[int][]string{2: oStatus, 5: oPriority, 6: oClerk, 8: oComment},
	}
	ld := &storage.ColumnData{
		I64: map[int][]int64{0: lOrderkey, 1: lPartkey, 2: lSuppkey, 3: lLinenumber,
			10: lShipdate, 11: lCommitdate, 12: lReceiptdate},
		F64: map[int][]float64{4: lQuantity, 5: lPrice, 6: lDiscount, 7: lTax},
		Str: map[int][]string{8: lReturnflag, 9: lLinestatus, 13: lShipinstruct, 14: lShipmode, 15: lComment},
	}
	db.create("orders", oSchema, od)
	if opt.ClusteredShipdate {
		sortColumnsBy(ld, 10) // l_shipdate
	}
	db.create("lineitem", lSchema, ld)
}
