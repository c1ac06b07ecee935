package pbm

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// residentClaimed builds a PBM over n resident pages of one column, each
// claimed by scans overlapping scans that start at evenly spaced pages
// and wrap around, as concurrent scans of one table do. Every page holds
// tuples tuples; the scans have reported no progress, so no claim
// expires while the clock stands still.
func residentClaimed(n, scans, tuples int, cfg Config) (*PBM, []*buffer.Frame, []ScanID) {
	p := New(&fakeClock{}, cfg)
	pages := make([]*storage.Page, n)
	frames := make([]*buffer.Frame, n)
	for i := range pages {
		pages[i] = &storage.Page{ID: storage.PageID(i + 1), Tuples: tuples, Bytes: storage.PageSize}
		frames[i] = &buffer.Frame{Page: pages[i]}
	}
	ids := make([]ScanID, scans)
	for k := range ids {
		at := k * n / scans
		ids[k] = p.RegisterScan([][]*storage.Page{append(pages[at:n:n], pages[:at]...)})
	}
	for _, f := range frames {
		p.Admitted(f)
	}
	return p, frames, ids
}

// BenchmarkPBMAccess times Accessed on a resident page at 1, 4 and 16
// claims per page: one use recorded and one re-push from the claims.
func BenchmarkPBMAccess(b *testing.B) {
	for _, claims := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("claims=%d", claims), func(b *testing.B) {
			p, frames, _ := residentClaimed(256, claims, 1000, DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Accessed(frames[i%len(frames)])
			}
		})
	}
}

// BenchmarkPBMVictim times one batch refill: Victim called EvictBatch
// times on 1,024 resident pages whose next consumptions span the whole
// default timeline (0.4 s apart at the default speed, 409.6 s in all).
// Victims are not removed, so each op selects a batch afresh.
func BenchmarkPBMVictim(b *testing.B) {
	cfg := DefaultConfig()
	p, _, _ := residentClaimed(1024, 1, 400_000, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < cfg.EvictBatch; j++ {
			if p.Victim() == nil {
				b.Fatal("no victim")
			}
		}
	}
}

// BenchmarkPBMRegister times registering and unregistering a 4-column
// scan of 1,000 pages, every one resident and claimed by one other scan.
func BenchmarkPBMRegister(b *testing.B) {
	p, frames, _ := residentClaimed(1000, 1, 1000, DefaultConfig())
	cols := make([][]*storage.Page, 4)
	for i, f := range frames {
		cols[i%4] = append(cols[i%4], f.Page)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.UnregisterScan(p.RegisterScan(cols))
	}
}
