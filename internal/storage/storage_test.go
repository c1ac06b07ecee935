package storage

import (
	"testing"
	"testing/quick"
)

func twoColSchema() Schema {
	return Schema{
		{Name: "a", Type: Int64, Width: 8},
		{Name: "b", Type: String, Width: 1},
	}
}

func dataN(n int, base int64) *ColumnData {
	d := NewColumnData()
	a := make([]int64, n)
	b := make([]string, n)
	for i := 0; i < n; i++ {
		a[i] = base + int64(i)
		b[i] = "x"
	}
	d.I64[0] = a
	d.Str[1] = b
	return d
}

func TestCreateTable(t *testing.T) {
	c := NewCatalog()
	tb, err := c.CreateTable("t", twoColSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Master().NumTuples() != 0 {
		t.Fatal("new table not empty")
	}
	if _, err := c.CreateTable("t", twoColSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := c.CreateTable("u", Schema{}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := c.CreateTable("v", Schema{{Name: "a", Type: Int64, Width: 0}}); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestAppendAndRead(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s1, err := tb.Master().Append(dataN(5000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumTuples() != 5000 {
		t.Fatalf("tuples = %d", s1.NumTuples())
	}
	got := s1.ReadInt64(0, 100, 110, nil)
	for i, v := range got {
		if v != int64(100+i) {
			t.Fatalf("ReadInt64[%d] = %d", i, v)
		}
	}
	strs := s1.ReadString(1, 0, 3, nil)
	if len(strs) != 3 || strs[0] != "x" {
		t.Fatalf("ReadString = %v", strs)
	}
}

func TestPageGeometryPerWidth(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s1, _ := tb.Master().Append(dataN(5000, 0))
	// Width 8: 2048 tuples/page => 3 pages for 5000 tuples.
	if got := len(s1.Pages(0)); got != 3 {
		t.Fatalf("wide column pages = %d, want 3", got)
	}
	// Width 1: 16384 tuples/page => 1 page.
	if got := len(s1.Pages(1)); got != 1 {
		t.Fatalf("narrow column pages = %d, want 1", got)
	}
	if s1.Pages(0)[0].Tuples != 2048 || s1.Pages(0)[2].Tuples != 5000-2*2048 {
		t.Fatalf("page tuple counts wrong: %d %d", s1.Pages(0)[0].Tuples, s1.Pages(0)[2].Tuples)
	}
}

func TestAppendSharesPrefixPages(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s1, _ := tb.Master().Append(dataN(5000, 0))
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	s2, _ := s1.Append(dataN(1000, 5000))
	prefix := s2.SharedPrefixPages(s1)
	if prefix[0] != 3 || prefix[1] != 1 {
		t.Fatalf("prefix = %v, want [3 1]", prefix)
	}
	// The appended values read back correctly across the page boundary.
	got := s2.ReadInt64(0, 4995, 5005, nil)
	for i, v := range got {
		if v != int64(4995+i) {
			t.Fatalf("boundary read[%d] = %d", i, v)
		}
	}
}

// TestCommitConflict reproduces the paper's §2.1 rule (Figures 5/6): of two
// transactions appending from the same master, only the first commit
// succeeds; the second conflicts.
func TestCommitConflict(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	base, _ := tb.Master().Append(dataN(4000, 0))
	if err := base.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, _ := tb.Master().Append(dataN(100, 4000)) // T1's local snapshot
	t2, _ := tb.Master().Append(dataN(200, 4000)) // T2's local snapshot
	if err := t2.Commit(); err != nil {
		t.Fatalf("T2 commit: %v", err)
	}
	if err := t1.Commit(); err != ErrConflict {
		t.Fatalf("T1 commit err = %v, want ErrConflict", err)
	}
	if tb.Master() != t2 {
		t.Fatal("master is not T2's snapshot")
	}
}

// TestSharedPrefixAcrossCommit models Figure 6: T3/T4 fork from the new
// master after T2 commits; their snapshots share the full committed prefix.
func TestSharedPrefixAcrossCommit(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s, _ := tb.Master().Append(dataN(4000, 0))
	_ = s.Commit()
	t2, _ := tb.Master().Append(dataN(3000, 4000))
	_ = t2.Commit()
	t3, _ := tb.Master().Append(dataN(10, 7000))
	t4, _ := tb.Master().Append(dataN(20, 7000))
	shared := t3.SharedPrefixTuples(t4)
	if shared != 7000 {
		t.Fatalf("shared prefix tuples = %d, want 7000", shared)
	}
}

// pagewisePrefixTuples is SharedPrefixTuples as first written: walk every
// column's pages of both snapshots, identical or not.
func pagewisePrefixTuples(s, o *Snapshot) int64 {
	if s.table != o.table || s.version != o.version {
		return 0
	}
	bound := min(s.tuples, o.tuples)
	for c := range s.cols {
		k := 0
		for k < len(s.cols[c]) && k < len(o.cols[c]) && s.cols[c][k] == o.cols[c][k] {
			k++
		}
		var covered int64
		if k > 0 {
			covered = s.cols[c][k-1].LastSID()
		}
		bound = min(bound, covered)
	}
	return max(bound, 0)
}

// TestSharedPrefixTuplesMatchesPagewiseWalk covers the snapshot pairs the
// ABM's marking meets — a snapshot with itself (answered without a walk),
// forks of one master, a fork of a fork, an empty snapshot, another
// version — and pins the call at zero allocations.
func TestSharedPrefixTuplesMatchesPagewiseWalk(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	empty := tb.Master()
	base, _ := empty.Append(dataN(5000, 0))
	_ = base.Commit()
	forkA, _ := base.Append(dataN(10, 5000))
	forkB, _ := base.Append(dataN(3000, 5000))
	forkAA, _ := forkA.Append(dataN(7, 5010))
	v2, err := tb.Checkpoint(dataN(5000, 0))
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*Snapshot{empty, base, forkA, forkB, forkAA, v2}
	for i, s := range snaps {
		for j, o := range snaps {
			got, want := s.SharedPrefixTuples(o), pagewisePrefixTuples(s, o)
			if got != want {
				t.Errorf("snaps[%d].SharedPrefixTuples(snaps[%d]) = %d, page-wise walk gives %d", i, j, got, want)
			}
			if i == j && got != s.NumTuples() {
				t.Errorf("snaps[%d] shares %d tuples with itself, has %d", i, got, s.NumTuples())
			}
			if n := testing.AllocsPerRun(10, func() { s.SharedPrefixTuples(o) }); n != 0 {
				t.Errorf("snaps[%d].SharedPrefixTuples(snaps[%d]) allocates %v times", i, j, n)
			}
		}
	}
	if got := forkAA.SharedPrefixTuples(forkB); got != 5000 {
		t.Fatalf("fork of a fork shares %d tuples with its sibling branch, want the master's 5000", got)
	}
}

func TestCheckpointNewVersionSharesNothing(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s1, _ := tb.Master().Append(dataN(3000, 0))
	_ = s1.Commit()
	s2, err := tb.Checkpoint(dataN(3100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version() != s1.Version()+1 {
		t.Fatalf("version = %d, want %d", s2.Version(), s1.Version()+1)
	}
	prefix := s2.SharedPrefixPages(s1)
	for _, k := range prefix {
		if k != 0 {
			t.Fatalf("checkpointed snapshot shares pages: %v", prefix)
		}
	}
	if tb.Master() != s2 {
		t.Fatal("checkpoint did not install master")
	}
	// Old snapshot still readable (readers on the old version keep working).
	if got := s1.ReadInt64(0, 0, 1, nil); got[0] != 0 {
		t.Fatal("old snapshot unreadable after checkpoint")
	}
}

func TestPagesInRange(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s, _ := tb.Master().Append(dataN(5000, 0))
	ps := s.PagesInRange(0, 2048, 2049) // exactly the second page
	if len(ps) != 1 || ps[0].FirstSID != 2048 {
		t.Fatalf("PagesInRange = %v", ps)
	}
	if got := s.PagesInRange(0, 0, 5000); len(got) != 3 {
		t.Fatalf("full range pages = %d", len(got))
	}
	if got := s.PagesInRange(0, 5000, 6000); got != nil {
		t.Fatalf("out of range pages = %v", got)
	}
	if got := s.PagesInRange(0, 10, 10); got != nil {
		t.Fatal("empty range returned pages")
	}
}

func TestTotalBytes(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s, _ := tb.Master().Append(dataN(1000, 0))
	if got := s.TotalBytes([]int{0}); got != 8000 {
		t.Fatalf("col0 bytes = %d, want 8000", got)
	}
	if got := s.TotalBytes(nil); got != 8000+1000 {
		t.Fatalf("all bytes = %d, want 9000", got)
	}
}

func TestBlocksSequentialWithinAppend(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s, _ := tb.Master().Append(dataN(10000, 0))
	ps := s.Pages(0)
	for i := 1; i < len(ps); i++ {
		if ps[i].Block != ps[i-1].Block+1 {
			t.Fatalf("blocks not consecutive: %d then %d", ps[i-1].Block, ps[i].Block)
		}
	}
}

func TestMissingColumnData(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	d := NewColumnData()
	d.I64[0] = []int64{1}
	if _, err := tb.Master().Append(d); err == nil {
		t.Fatal("missing column accepted")
	}
	d.Str[1] = []string{"a", "b"}
	if _, err := tb.Master().Append(d); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

// Property: for any sequence of appends, reading the full table returns
// exactly the concatenation of the appended values.
func TestPropertyAppendConcatenation(t *testing.T) {
	f := func(sizes []uint8) bool {
		c := NewCatalog()
		tb, _ := c.CreateTable("t", twoColSchema())
		var want []int64
		s := tb.Master()
		for _, raw := range sizes {
			n := int(raw)%700 + 1
			base := int64(len(want))
			var err error
			s, err = s.Append(dataN(n, base))
			if err != nil {
				return false
			}
			for i := 0; i < n; i++ {
				want = append(want, base+int64(i))
			}
		}
		got := s.ReadInt64(0, 0, int64(len(want)), nil)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return s.NumTuples() == int64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: PagesInRange covers exactly the requested SIDs with no gaps or
// overlaps beyond page boundaries.
func TestPropertyPagesCoverRange(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("t", twoColSchema())
	s, _ := tb.Master().Append(dataN(9000, 0))
	f := func(a, b uint16) bool {
		lo, hi := int64(a)%9000, int64(b)%9000
		if lo > hi {
			lo, hi = hi, lo
		}
		ps := s.PagesInRange(0, lo, hi)
		if lo == hi {
			return ps == nil
		}
		if len(ps) == 0 {
			return false
		}
		if ps[0].FirstSID > lo || ps[len(ps)-1].LastSID() < hi {
			return false
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].FirstSID != ps[i-1].LastSID() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
