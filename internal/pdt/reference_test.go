package pdt

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/storage"
)

// refSegmentsRID is the skip/take merge planner SegmentsRID replaced,
// kept as the oracle for FuzzSegmentsRID: the coalescing rules fix the
// read boundaries every scan issues, so the plan must match segment for
// segment. It appends across insert runs into the PDT's own storage, so
// run it on a clone.
func refSegmentsRID(p *PDT, ridLo, ridHi int64) []Segment {
	total := p.NumTuples()
	if ridLo < 0 || ridHi > total || ridLo > ridHi {
		panic(fmt.Sprintf("pdt: RID range [%d,%d) out of [0,%d]", ridLo, ridHi, total))
	}
	if ridLo == ridHi {
		return nil
	}
	var out []Segment
	remaining := ridHi - ridLo

	emitStable := func(lo, hi int64, mods map[int64]map[int]Value) {
		if lo >= hi {
			return
		}
		if n := len(out); n > 0 && out[n-1].Kind == SegStable && out[n-1].Hi == lo {
			out[n-1].Hi = hi
			for k, v := range mods {
				if out[n-1].Mods == nil {
					out[n-1].Mods = make(map[int64]map[int]Value)
				}
				out[n-1].Mods[k] = v
			}
			return
		}
		out = append(out, Segment{Kind: SegStable, Lo: lo, Hi: hi, Mods: mods})
	}
	emitInserts := func(rows []Row) {
		if len(rows) == 0 {
			return
		}
		if n := len(out); n > 0 && out[n-1].Kind == SegInsert {
			out[n-1].Rows = append(out[n-1].Rows, rows...)
			return
		}
		out = append(out, Segment{Kind: SegInsert, Rows: rows})
	}
	take := func(n int64) int64 {
		if n > remaining {
			n = remaining
		}
		remaining -= n
		return n
	}

	sid := int64(0)
	skip := ridLo
	ni := 0
	for remaining > 0 {
		var nextNodeSID int64 = p.stableCount
		if ni < len(p.nodes) {
			nextNodeSID = p.nodes[ni].sid
		}
		runLen := nextNodeSID - sid
		if runLen > 0 {
			if skip >= runLen {
				skip -= runLen
				sid += runLen
			} else {
				lo := sid + skip
				sid += skip
				skip = 0
				n := take(nextNodeSID - lo)
				emitStable(lo, lo+n, nil)
				sid += n
				if remaining == 0 {
					break
				}
			}
			continue
		}
		if ni >= len(p.nodes) {
			break
		}
		n := &p.nodes[ni]
		if len(n.inserts) > 0 {
			cnt := int64(len(n.inserts))
			if skip >= cnt {
				skip -= cnt
			} else {
				start := skip
				skip = 0
				m := take(cnt - start)
				emitInserts(n.inserts[start : start+m])
				if remaining == 0 {
					break
				}
			}
		}
		if n.sid < p.stableCount {
			if n.deleted {
				sid++
			} else if skip > 0 {
				skip--
				sid++
			} else {
				var mods map[int64]map[int]Value
				if len(n.mods) > 0 {
					mods = map[int64]map[int]Value{n.sid: n.mods}
				}
				take(1)
				emitStable(n.sid, n.sid+1, mods)
				sid++
				if remaining == 0 {
					break
				}
			}
		}
		ni++
	}
	return out
}

func twoColSchema() storage.Schema {
	return storage.Schema{
		{Name: "v", Type: storage.Int64, Width: 8},
		{Name: "s", Type: storage.String, Width: 4},
	}
}

func strOf(v int64) string { return fmt.Sprint("s", v) }

// twoColSnap holds stable tuple i as (i, strOf(i)).
func twoColSnap(t testing.TB, n int) *storage.Snapshot {
	t.Helper()
	tb, err := storage.NewCatalog().CreateTable("t", twoColSchema())
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewColumnData()
	for i := 0; i < n; i++ {
		d.I64[0] = append(d.I64[0], int64(i))
		d.Str[1] = append(d.Str[1], strOf(int64(i)))
	}
	s, err := tb.Master().Append(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// splitInsertLayout builds the layout where a deleted anchored tuple
// separates two nodes' inserts, the first node's list having spare
// capacity: stable 0..5, inserts 10 11 12 before SID 2, SID 2 deleted,
// insert 20 before SID 3.
func splitInsertLayout() *PDT {
	p := New(oneColSchema(), 6)
	for i, v := range []int64{10, 11, 12} {
		p.InsertAt(int64(2+i), row(v))
	}
	p.DeleteAt(5)
	p.InsertAt(5, row(20))
	return p
}

// TestPlanningWritesNothing: planning a merge across two nodes' insert
// runs must not write into the first node's spare capacity, or a later
// InsertAt would rewrite a plan another scan of the same PDT holds.
func TestPlanningWritesNothing(t *testing.T) {
	p := splitInsertLayout()
	ins := p.nodes[0].inserts
	if cap(ins) == len(ins) {
		t.Fatal("layout has no spare insert capacity to guard")
	}
	before := slices.Clone(ins[:cap(ins)])
	segs := p.SegmentsRID(0, p.NumTuples())
	if got := ins[:cap(ins)]; !reflect.DeepEqual(got, before) {
		t.Fatalf("planning wrote the PDT's insert storage: %v, was %v", got, before)
	}
	if len(segs) != 3 || len(segs[1].Rows) != 4 {
		t.Fatalf("plan = %+v, want stable, 4 inserts, stable", segs)
	}
}

// fuzzOps encodes a sequence of (kind, position) op pairs for
// FuzzSegmentsRID; kinds are 0 insert, 1 delete, 2 modify v, 3 modify s.
func fuzzOps(ops ...[2]byte) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, o[0], o[1])
	}
	return out
}

// FuzzSegmentsRID holds SegmentsRID to refSegmentsRID segment for
// segment, and the plan and Image to a naive model, over a two-column PDT.
func FuzzSegmentsRID(f *testing.F) {
	const stableN = 12
	// TestSegmentsRIDMatchesImage's shapes: 20 random ops, any range.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 40)
		rng.Read(ops)
		f.Add(ops, uint16(rng.Intn(64)), uint16(rng.Intn(64)))
	}
	f.Add([]byte(nil), uint16(3), uint16(9))                                           // identity
	f.Add(fuzzOps([2]byte{0, 2}), uint16(2), uint16(3))                                // exactly one insert
	f.Add(fuzzOps([2]byte{1, 5}), uint16(3), uint16(3))                                // empty range
	f.Add(fuzzOps([2]byte{1, 2}, [2]byte{0, 2}, [2]byte{0, 2}), uint16(0), uint16(13)) // insert run spanning a delete
	f.Add(fuzzOps([2]byte{2, 4}, [2]byte{3, 5}, [2]byte{1, 6}, [2]byte{0, 11}), uint16(4), uint16(12))
	f.Add(fuzzOps([2]byte{0, 2}, [2]byte{0, 3}, [2]byte{0, 4}, [2]byte{1, 5}, [2]byte{0, 5}), uint16(1), uint16(7)) // splitInsertLayout
	f.Add(fuzzOps([2]byte{0, 12}, [2]byte{0, 13}, [2]byte{3, 12}), uint16(11), uint16(14))                          // appended tail

	snap := twoColSnap(f, stableN)
	f.Fuzz(func(t *testing.T, ops []byte, aRaw, bRaw uint16) {
		p := New(twoColSchema(), stableN)
		m := newRefModel(stableN)
		strs := make([]string, stableN)
		for i := range strs {
			strs[i] = strOf(int64(i))
		}
		for i := 0; i+1 < len(ops) && i < 128; i += 2 {
			total := int64(len(m.vals))
			v := int64(100 + i)
			switch k := ops[i] % 4; {
			case k == 0 || total == 0:
				rid := int64(ops[i+1]) % (total + 1)
				p.InsertAt(rid, Row{IntVal(v), StrVal(strOf(v))})
				m.insert(rid, v)
				strs = slices.Insert(strs, int(rid), strOf(v))
			case k == 1:
				rid := int64(ops[i+1]) % total
				p.DeleteAt(rid)
				m.delete(rid)
				strs = slices.Delete(strs, int(rid), int(rid)+1)
			case k == 2:
				rid := int64(ops[i+1]) % total
				p.ModifyAt(rid, 0, IntVal(v))
				m.modify(rid, v)
			default:
				rid := int64(ops[i+1]) % total
				p.ModifyAt(rid, 1, StrVal(strOf(v)))
				strs[rid] = strOf(v)
			}
		}
		total := p.NumTuples()
		if total != int64(len(m.vals)) {
			t.Fatalf("NumTuples = %d, model has %d", total, len(m.vals))
		}
		a, b := int64(aRaw)%(total+1), int64(bRaw)%(total+1)
		if a > b {
			a, b = b, a
		}

		segs := p.SegmentsRID(a, b)
		if want := refSegmentsRID(p.Clone(), a, b); !reflect.DeepEqual(segs, want) {
			t.Fatalf("SegmentsRID(%d, %d) = %+v, reference planner %+v", a, b, segs, want)
		}
		var gotV []int64
		var gotS []string
		for _, s := range segs {
			if s.Kind == SegInsert {
				for _, r := range s.Rows {
					gotV, gotS = append(gotV, r[0].I64), append(gotS, r[1].Str)
				}
				continue
			}
			for sid := s.Lo; sid < s.Hi; sid++ {
				v, str := sid, strOf(sid)
				if mv, ok := s.Mods[sid][0]; ok {
					v = mv.I64
				}
				if mv, ok := s.Mods[sid][1]; ok {
					str = mv.Str
				}
				gotV, gotS = append(gotV, v), append(gotS, str)
			}
		}
		if !slices.Equal(gotV, m.vals[a:b]) || !slices.Equal(gotS, strs[a:b]) {
			t.Fatalf("plan [%d,%d) materializes %v %v, model %v %v", a, b, gotV, gotS, m.vals[a:b], strs[a:b])
		}
		img := p.Image(snap)
		if !slices.Equal(img.I64[0], m.vals) || !slices.Equal(img.Str[1], strs) {
			t.Fatalf("Image = %v %v, model %v %v", img.I64[0], img.Str[1], m.vals, strs)
		}
	})
}
