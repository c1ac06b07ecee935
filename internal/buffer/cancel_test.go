package buffer

import (
	"errors"
	"testing"
	"time"

	"repro/internal/rt"
)

// TestSimReservationCancelUnblocks: a get blocked on a full pool (every
// frame pinned) must wake when its query is cancelled and return the
// ErrCancelled sentinel without a frame; the pool must stay usable for
// other queries afterwards.
func TestSimReservationCancelUnblocks(t *testing.T) {
	eng, pool, pages := poolFixture(t, NewLRU(), 2, 4)
	qc := rt.NewQueryCtx(rt.Sim(eng))
	var blockedErr error
	var blockedFrame *Frame
	eng.Go("pinner", func() {
		// Pin the whole pool, then hold until well after the cancel.
		f0 := pool.Get(pages[0])
		f1 := pool.Get(pages[1])
		eng.Sleep(10 * time.Millisecond)
		pool.Unpin(f0)
		pool.Unpin(f1)
	})
	eng.Go("blocked", func() {
		eng.Sleep(time.Millisecond) // let the pinner fill the pool first
		blockedFrame, blockedErr = pool.GetOwner(qc, pages[2])
	})
	eng.Go("canceller", func() {
		eng.Sleep(2 * time.Millisecond)
		qc.Cancel(rt.CauseClientCancel)
	})
	eng.Run()
	if !errors.Is(blockedErr, ErrCancelled) {
		t.Fatalf("blocked get returned err %v, want ErrCancelled", blockedErr)
	}
	if blockedFrame != nil {
		t.Fatalf("cancelled get returned a frame for page %d", blockedFrame.Page.ID)
	}
	// The reservation must have been fully released.
	if used, cap := pool.Used(), pool.Capacity(); used > cap {
		t.Fatalf("pool left overcommitted after cancel: %d/%d", used, cap)
	}
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

// TestRealReservationCancelUnblocks is the real-runtime twin of the sim
// test: the blocked reservation waits on the pool's condvar, and the
// cancel hook's Broadcast must wake it. Run with -race.
func TestRealReservationCancelUnblocks(t *testing.T) {
	r, pool, pages := realPoolEnv(t, 1, 4)
	qc := rt.NewQueryCtx(r)
	pinned := make(chan *Frame, 1)
	release := make(chan struct{})
	var blockedErr error
	r.Go("pinner", func() {
		f := pool.Get(pages[0])
		pinned <- f
		<-release
		pool.Unpin(f)
	})
	r.Go("blocked", func() {
		<-pinned // the single frame is pinned: this get must stall
		r.Go("canceller", func() {
			time.Sleep(5 * time.Millisecond)
			qc.Cancel(rt.CauseClientCancel)
		})
		_, blockedErr = pool.GetOwner(qc, pages[1])
		close(release)
	})
	finished := make(chan struct{})
	go func() { r.Run(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("cancel did not wake the blocked reservation")
	}
	if !errors.Is(blockedErr, ErrCancelled) {
		t.Fatalf("blocked get returned err %v, want ErrCancelled", blockedErr)
	}
	if used, cap := pool.Used(), pool.Capacity(); used > cap {
		t.Fatalf("pool left overcommitted after cancel: %d/%d", used, cap)
	}
}
