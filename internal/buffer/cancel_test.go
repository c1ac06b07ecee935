package buffer

import (
	"errors"
	"testing"
	"time"

	"repro/internal/rt"
)

// TestReservationCancelUnblocks: a get blocked on a full pool (its one
// frame pinned) must wake when its query is cancelled, on both runtimes,
// and return the ErrCancelled sentinel without a frame while the pin is
// still held. Its reservation must leave the queue, so the pool is idle
// and balanced once the pinner lets go.
func TestReservationCancelUnblocks(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, r rt.Runtime) {
		pool, pages := poolOn(t, r, NewLRU(), 1, 4)
		qc := rt.NewQueryCtx(r)
		var blockedErr error
		var blockedFrame *Frame
		r.Go("pinner", func() {
			f := pool.Get(pages[0])
			blocked := r.NewWaitGroup()
			blocked.Add(1)
			r.Go("blocked", func() {
				blockedFrame, blockedErr = pool.GetOwner(qc, pages[1])
				blocked.Done()
			})
			for pool.Stats().Stalls == 0 {
				r.Sleep(time.Millisecond)
			}
			qc.Cancel(rt.CauseClientCancel)
			blocked.Wait()
			pool.Unpin(f)
		})
		runWithin(t, r)
		if !errors.Is(blockedErr, ErrCancelled) {
			t.Fatalf("blocked get returned err %v, want ErrCancelled", blockedErr)
		}
		if blockedFrame != nil {
			t.Fatalf("cancelled get returned a frame for page %d", blockedFrame.Page.ID)
		}
		if err := pool.Check(true); err != nil {
			t.Error(err)
		}
	})
}

// TestSimCancelledGetFailsFast: an already-cancelled query's get must
// return ErrCancelled immediately, even when the pool has room.
func TestSimCancelledGetFailsFast(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 4, 4)
	qc := rt.NewQueryCtx(rt.Sim(eng))
	qc.Cancel(rt.CauseDeadlineExceeded)
	var err error
	eng.Go("q", func() { _, err = pool.GetOwner(qc, pages[0]) })
	eng.Run()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if st := pool.Stats(); st.BytesLoaded != 0 {
		t.Fatalf("cancelled get still loaded %d bytes", st.BytesLoaded)
	}
}
