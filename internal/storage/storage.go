// Package storage implements the columnar stable-storage layer of the
// simulated analytical engine: typed columns split into fixed-size pages,
// immutable snapshots built from page-reference arrays, bulk appends with
// snapshot isolation, commit/conflict rules and checkpointing — the
// substrate §2.1 of the paper integrates Cooperative Scans with.
//
// Tuples in stable storage are addressed by SID (Stable ID), a dense
// 0-based sequence per table snapshot. Pages are immutable once created;
// an Append creates new pages and a new snapshot sharing all previous
// pages, so concurrently-running transactions see snapshots with a common
// page prefix (Figures 5 and 6 of the paper). A checkpoint rewrites the
// table into entirely fresh pages and bumps the table version (Figure 7).
package storage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/iosim"
)

// PageSize is the fixed logical page size in bytes. Columns with a small
// compressed width pack many more tuples per page than wide columns, which
// is the columnar complication the paper highlights: one chunk of tuples
// maps to many pages for wide columns and a fraction of a page for narrow
// ones.
const PageSize = 16 * 1024

// ColumnType enumerates the supported column value types.
type ColumnType int

const (
	Int64 ColumnType = iota
	Float64
	String
)

func (t ColumnType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	}
	return fmt.Sprintf("ColumnType(%d)", int(t))
}

// ColumnDef describes one column of a table.
type ColumnDef struct {
	Name string
	Type ColumnType
	// Width is the simulated on-disk byte width per tuple after
	// compression. It determines tuples-per-page and hence the I/O volume
	// a scan of this column generates.
	Width int
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PageID uniquely identifies a page within a Catalog.
type PageID int64

// IDList formats ids for an error message: sorted in place, so the text
// does not depend on the order a map yielded them in, and capped at
// eight.
func IDList[T cmp.Ordered](ids []T) string {
	slices.Sort(ids)
	if len(ids) > 8 {
		return fmt.Sprint(ids[:8], " and ", len(ids)-8, " more")
	}
	return fmt.Sprint(ids)
}

// Page is an immutable unit of columnar storage. Exactly one of the typed
// slices is non-nil, holding Tuples values for SIDs
// [FirstSID, FirstSID+Tuples).
type Page struct {
	ID       PageID
	Block    iosim.BlockID // physical home; consecutive for pages created together
	Col      int           // column index within the table schema
	FirstSID int64
	Tuples   int
	Bytes    int64 // simulated on-disk size

	I64 []int64
	F64 []float64
	Str []string
	// Code is a String page's values as bytes when every one of them is
	// exactly one byte long (Code[i] == Str[i][0]), nil otherwise. Str
	// stays the values; Code only lets a reader skip the string headers.
	Code []byte
}

// LastSID returns the SID one past the final tuple on the page.
func (p *Page) LastSID() int64 { return p.FirstSID + int64(p.Tuples) }

// Catalog owns tables and allocates page and snapshot identifiers. It is
// the unit of a simulated database instance; all identifier allocation is
// deterministic in creation order.
type Catalog struct {
	nextPage  PageID
	nextBlock iosim.BlockID
	nextSnap  int64
	tables    map[string]*Table
	order     []string
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables returns all tables in creation order.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.tables[n])
	}
	return out
}

// Table is a named relation. Its committed state is the master snapshot.
type Table struct {
	cat    *Catalog
	Name   string
	Schema Schema

	// mu guards master. Snapshots are immutable, but the pointer to the
	// committed one moves: a long-lived HTAP server checkpoints online
	// while concurrent scans resolve the current master, and publishing
	// the fresh snapshot under the lock is what makes its (plainly
	// written) fields visible to them.
	mu     sync.RWMutex
	master *Snapshot
}

// CreateTable registers an empty table with the given schema. The initial
// master snapshot has zero tuples.
func (c *Catalog) CreateTable(name string, schema Schema) (*Table, error) {
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	if len(schema) == 0 {
		return nil, errors.New("storage: empty schema")
	}
	for _, col := range schema {
		if col.Width <= 0 || col.Width > PageSize {
			return nil, fmt.Errorf("storage: column %q has invalid width %d", col.Name, col.Width)
		}
	}
	t := &Table{cat: c, Name: name, Schema: schema}
	t.master = &Snapshot{
		table:   t,
		id:      c.allocSnap(),
		version: 1,
		cols:    make([][]*Page, len(schema)),
	}
	c.tables[name] = t
	c.order = append(c.order, name)
	return t, nil
}

func (c *Catalog) allocSnap() int64 {
	c.nextSnap++
	return c.nextSnap
}

// Master returns the current committed snapshot.
func (t *Table) Master() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.master
}

// Snapshot is an immutable view of a table: one page-reference array per
// column (the paper's storage-level snapshot for bulk appends). Snapshots
// derived by Append share a prefix of pages with their base.
type Snapshot struct {
	table   *Table
	id      int64
	version int // bumped by checkpoints; snapshots of different versions share no pages
	base    *Snapshot
	cols    [][]*Page
	tuples  int64
}

// Table returns the snapshot's table.
func (s *Snapshot) Table() *Table { return s.table }

// ID returns the catalog-unique snapshot identifier.
func (s *Snapshot) ID() int64 { return s.id }

// Version returns the table version (checkpoint generation).
func (s *Snapshot) Version() int { return s.version }

// NumTuples returns the stable tuple count.
func (s *Snapshot) NumTuples() int64 { return s.tuples }

// Pages returns the page-reference array of column col. The caller must
// not modify it.
func (s *Snapshot) Pages(col int) []*Page { return s.cols[col] }

// ColumnData carries append input: one typed slice per column of the
// table schema, all the same length.
type ColumnData struct {
	I64 map[int][]int64
	F64 map[int][]float64
	Str map[int][]string
}

// NewColumnData returns an empty ColumnData.
func NewColumnData() *ColumnData {
	return &ColumnData{
		I64: make(map[int][]int64),
		F64: make(map[int][]float64),
		Str: make(map[int][]string),
	}
}

func (d *ColumnData) lenFor(schema Schema) (int, error) {
	n := -1
	check := func(col int, l int) error {
		if n == -1 {
			n = l
		}
		if l != n {
			return fmt.Errorf("storage: column %d has %d values, want %d", col, l, n)
		}
		return nil
	}
	for i, def := range schema {
		var l int
		var ok bool
		switch def.Type {
		case Int64:
			_, ok = d.I64[i]
			l = len(d.I64[i])
		case Float64:
			_, ok = d.F64[i]
			l = len(d.F64[i])
		case String:
			_, ok = d.Str[i]
			l = len(d.Str[i])
		}
		if !ok {
			return 0, fmt.Errorf("storage: missing data for column %d (%s)", i, def.Name)
		}
		if err := check(i, l); err != nil {
			return 0, err
		}
	}
	if n < 0 {
		n = 0
	}
	return n, nil
}

// Append builds a new snapshot that extends s with the given rows. Shared
// prefix pages are reused by reference; only the appended tail allocates
// new pages. The returned snapshot is uncommitted (transaction-local)
// until Commit.
func (s *Snapshot) Append(data *ColumnData) (*Snapshot, error) {
	schema := s.table.Schema
	n, err := data.lenFor(schema)
	if err != nil {
		return nil, err
	}
	ns := &Snapshot{
		table:   s.table,
		id:      s.table.cat.allocSnap(),
		version: s.version,
		base:    s.forkBase(),
		cols:    make([][]*Page, len(schema)),
		tuples:  s.tuples + int64(n),
	}
	for i, def := range schema {
		ns.cols[i] = append(ns.cols[i], s.cols[i]...)
		start := s.tuples
		perPage := PageSize / def.Width
		for off := 0; off < n; off += perPage {
			cnt := n - off
			if cnt > perPage {
				cnt = perPage
			}
			p := &Page{
				ID:       s.table.cat.allocPage(),
				Block:    s.table.cat.allocBlock(),
				Col:      i,
				FirstSID: start + int64(off),
				Tuples:   cnt,
				Bytes:    int64(cnt * def.Width),
			}
			switch def.Type {
			case Int64:
				p.I64 = data.I64[i][off : off+cnt : off+cnt]
			case Float64:
				p.F64 = data.F64[i][off : off+cnt : off+cnt]
			case String:
				p.Str = data.Str[i][off : off+cnt : off+cnt]
				p.Code = codes(p.Str)
			}
			ns.cols[i] = append(ns.cols[i], p)
		}
	}
	return ns, nil
}

// codes is strs as bytes when every one of them is exactly one byte long,
// and nil otherwise.
func codes(strs []string) []byte {
	code := make([]byte, len(strs))
	for i, s := range strs {
		if len(s) != 1 {
			return nil
		}
		code[i] = s[0]
	}
	return code
}

// forkBase returns the conflict-check anchor for a snapshot derived from
// s: forking from the committed master anchors at the master itself,
// while appending to an uncommitted snapshot stays anchored at the
// transaction's original fork point.
func (s *Snapshot) forkBase() *Snapshot {
	if s.table.Master() == s {
		return s
	}
	if s.base != nil {
		return s.base
	}
	return s
}

// ErrConflict is returned by Commit when another transaction committed an
// append to the same table first (§2.1: only one of the concurrent
// appending transactions may commit; the others abort).
var ErrConflict = errors.New("storage: write-write conflict: base snapshot is no longer master")

// Commit installs s as the table's master snapshot. It fails with
// ErrConflict if the master moved since the snapshot chain was forked.
func (s *Snapshot) Commit() error {
	t := s.table
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.master == s {
		return nil
	}
	if s.base != t.master {
		return ErrConflict
	}
	t.master = s
	return nil
}

func (c *Catalog) allocPage() PageID {
	c.nextPage++
	return c.nextPage
}

func (c *Catalog) allocBlock() iosim.BlockID {
	c.nextBlock++
	return c.nextBlock
}

// Checkpoint replaces the table contents with data in entirely new pages
// and a bumped version, committing immediately as the new master (the
// paper's PDT checkpoint, Figure 7: old and new versions share no pages).
func (t *Table) Checkpoint(data *ColumnData) (*Snapshot, error) {
	if _, err := data.lenFor(t.Schema); err != nil {
		return nil, err
	}
	empty := &Snapshot{
		table:   t,
		id:      t.cat.allocSnap(),
		version: t.Master().version + 1,
		cols:    make([][]*Page, len(t.Schema)),
	}
	ns, err := empty.Append(data)
	if err != nil {
		return nil, err
	}
	ns.base = nil
	t.mu.Lock()
	t.master = ns
	t.mu.Unlock()
	return ns, nil
}

// PagesInRange returns the pages of column col overlapping SID range
// [lo, hi), in SID order. The result is a window on the snapshot's own
// page list — read-only, and capacity-limited so that appending to it
// copies instead of writing into the snapshot.
func (s *Snapshot) PagesInRange(col int, lo, hi int64) []*Page {
	pages := s.cols[col]
	if lo >= hi || len(pages) == 0 {
		return nil
	}
	// Binary search for the first page whose LastSID > lo.
	i, j := 0, len(pages)
	for i < j {
		m := (i + j) / 2
		if pages[m].LastSID() <= lo {
			i = m + 1
		} else {
			j = m
		}
	}
	for j = i; j < len(pages) && pages[j].FirstSID < hi; j++ {
	}
	if i == j {
		return nil
	}
	return pages[i:j:j]
}

// SharedPrefixPages returns, per column, the number of leading pages s and
// o have in common. Snapshots of different table versions share nothing.
func (s *Snapshot) SharedPrefixPages(o *Snapshot) []int {
	out := make([]int, len(s.cols))
	if s.table != o.table || s.version != o.version {
		return out
	}
	for c := range s.cols {
		out[c] = s.sharedPages(o, c)
	}
	return out
}

// sharedPages counts the leading pages of column c that s and o, two
// snapshots of one table version, have in common. A snapshot shares all
// of its pages with itself, which needs no walk.
func (s *Snapshot) sharedPages(o *Snapshot, c int) int {
	if s == o {
		return len(s.cols[c])
	}
	sp, op := s.cols[c], o.cols[c]
	n := min(len(sp), len(op))
	k := 0
	for k < n && sp[k] == op[k] {
		k++
	}
	return k
}

// SharedPrefixTuples returns the largest SID bound t such that all pages
// covering SIDs [0, t) in every column are shared between s and o. It
// does not allocate; s.SharedPrefixTuples(s) costs O(columns).
func (s *Snapshot) SharedPrefixTuples(o *Snapshot) int64 {
	if s.table != o.table || s.version != o.version {
		return 0
	}
	bound := min(s.tuples, o.tuples)
	for c := range s.cols {
		var covered int64
		if k := s.sharedPages(o, c); k > 0 {
			covered = s.cols[c][k-1].LastSID()
		}
		bound = min(bound, covered)
	}
	return bound
}

// ReadInt64 copies column col values for SIDs [lo, hi) into dst, which
// must have capacity hi-lo. It reads directly from page memory and is
// intended for tests and data-generation paths that bypass the buffer
// pool.
func (s *Snapshot) ReadInt64(col int, lo, hi int64, dst []int64) []int64 {
	dst = dst[:0]
	for _, p := range s.PagesInRange(col, lo, hi) {
		a, b := clip(p, lo, hi)
		dst = append(dst, p.I64[a:b]...)
	}
	return dst
}

// ReadFloat64 is ReadInt64 for float64 columns.
func (s *Snapshot) ReadFloat64(col int, lo, hi int64, dst []float64) []float64 {
	dst = dst[:0]
	for _, p := range s.PagesInRange(col, lo, hi) {
		a, b := clip(p, lo, hi)
		dst = append(dst, p.F64[a:b]...)
	}
	return dst
}

// ReadString is ReadInt64 for string columns.
func (s *Snapshot) ReadString(col int, lo, hi int64, dst []string) []string {
	dst = dst[:0]
	for _, p := range s.PagesInRange(col, lo, hi) {
		a, b := clip(p, lo, hi)
		dst = append(dst, p.Str[a:b]...)
	}
	return dst
}

// BlockMinMax summarizes an int64 column into per-block minimum/maximum
// pairs, blockTuples tuples per block (the last block may be short). It
// reads page memory directly — no buffer pool, no modeled I/O — the way
// Vectorwise maintains MinMax indexes during load; minmax.Build is the
// intended caller.
func (s *Snapshot) BlockMinMax(col int, blockTuples int64) (mins, maxs []int64) {
	if blockTuples <= 0 || s.tuples == 0 {
		return nil, nil
	}
	nBlocks := (s.tuples + blockTuples - 1) / blockTuples
	mins = make([]int64, 0, nBlocks)
	maxs = make([]int64, 0, nBlocks)
	for _, p := range s.cols[col] {
		for i, v := range p.I64 {
			if (p.FirstSID+int64(i))%blockTuples == 0 {
				mins = append(mins, v)
				maxs = append(maxs, v)
				continue
			}
			b := len(mins) - 1
			if v < mins[b] {
				mins[b] = v
			}
			if v > maxs[b] {
				maxs[b] = v
			}
		}
	}
	return mins, maxs
}

func clip(p *Page, lo, hi int64) (int, int) {
	a, b := int64(0), int64(p.Tuples)
	if lo > p.FirstSID {
		a = lo - p.FirstSID
	}
	if hi < p.LastSID() {
		b = hi - p.FirstSID
	}
	return int(a), int(b)
}

// TotalBytes returns the simulated on-disk size of the given columns
// (all columns when cols is nil).
func (s *Snapshot) TotalBytes(cols []int) int64 {
	if cols == nil {
		cols = make([]int, len(s.cols))
		for i := range cols {
			cols[i] = i
		}
	}
	var total int64
	for _, c := range cols {
		for _, p := range s.cols[c] {
			total += p.Bytes
		}
	}
	return total
}
