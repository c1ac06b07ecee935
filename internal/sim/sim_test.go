package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSingleProcessSleep(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Go("p", func() {
		e.Sleep(5 * time.Millisecond)
		at = e.Now()
	})
	e.Run()
	if at != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", at)
	}
}

func TestTimersFireInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("p", func() {
			e.Sleep(Duration(10-i) * time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	want := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameDeadlineTieBrokenByCreation(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func() {
			e.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

func TestClockNeverMovesBackwards(t *testing.T) {
	e := NewEngine()
	var last Time
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		d := Duration(rng.Intn(1000)) * time.Microsecond
		e.Go("p", func() {
			for j := 0; j < 10; j++ {
				e.Sleep(d)
				if e.Now() < last {
					t.Errorf("clock moved backwards: %v < %v", e.Now(), last)
				}
				last = e.Now()
			}
		})
	}
	e.Run()
}

func TestEventBroadcast(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	woke := 0
	for i := 0; i < 4; i++ {
		e.Go("waiter", func() {
			ev.Wait()
			woke++
		})
	}
	e.Go("firer", func() {
		e.Sleep(time.Millisecond)
		if ev.WaiterCount() != 4 {
			t.Errorf("WaiterCount = %d, want 4", ev.WaiterCount())
		}
		ev.Fire()
	})
	e.Run()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
}

func TestEventReusable(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	rounds := 0
	e.Go("waiter", func() {
		for i := 0; i < 3; i++ {
			ev.Wait()
			rounds++
		}
	})
	e.Go("firer", func() {
		for i := 0; i < 3; i++ {
			e.Sleep(time.Millisecond)
			ev.Fire()
		}
	})
	e.Run()
	if rounds != 3 {
		t.Fatalf("rounds = %d, want 3", rounds)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine()
	total := 0
	e.Go("parent", func() {
		for i := 0; i < 5; i++ {
			e.Go("child", func() {
				e.Sleep(time.Millisecond)
				total++
			})
		}
	})
	e.Run()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	panicked := false
	// The deadlock panic is raised inside the stuck process; recovering it
	// there lets the process exit and Run drain. Unrecovered it reaches
	// Run's caller: TestPanicsReachRun.
	e.Go("stuck", func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ev.Wait()
	})
	e.Run()
	if !panicked {
		t.Fatal("expected deadlock panic")
	}
}

// TestPanicsReachRun pins the failure contract: a panic raised inside a
// simulated process — its own or either deadlock panic — unwinds into
// Run's caller, which finds no process current.
func TestPanicsReachRun(t *testing.T) {
	for name, tc := range map[string]struct {
		spawn func(e *Engine)
		want  string
	}{
		"process panic": {
			spawn: func(e *Engine) {
				e.Go("bystander", func() { e.Sleep(time.Second) })
				e.Go("p", func() {
					e.Sleep(time.Millisecond)
					panic("boom")
				})
			},
			want: "boom",
		},
		"deadlock in yield names the process": {
			spawn: func(e *Engine) {
				ev := e.NewEvent()
				e.Go("stuck", func() { ev.Wait() })
			},
			want: `process "stuck" blocked`,
		},
		"deadlock at exit counts the blocked": {
			spawn: func(e *Engine) {
				ev := e.NewEvent()
				e.Go("stuck", func() { ev.Wait() })
				e.Go("leaver", func() {})
			},
			want: "1 processes blocked",
		},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			tc.spawn(e)
			var got string
			func() {
				defer func() { got = fmt.Sprint(recover()) }()
				e.Run()
			}()
			if !strings.Contains(got, tc.want) {
				t.Fatalf("Run panicked with %q, want it to contain %q", got, tc.want)
			}
			if e.current != nil {
				t.Fatalf("Run left process %q current", e.current.name)
			}
		})
	}
}

// TestHandOffsDoNotAllocate pins the steady-state cost of the two
// hand-offs a rep is made of: a timer sleep and an event wake.
func TestHandOffsDoNotAllocate(t *testing.T) {
	const rounds = 1000
	e := NewEngine()
	ping, pong := e.NewEvent(), e.NewEvent()
	var sleeps, wakes float64
	e.Go("pong", func() {
		for i := 0; i < 2*(rounds+1); i++ { // AllocsPerRun adds a warm-up call
			ping.Wait()
			pong.Fire()
		}
	})
	e.Go("ping", func() {
		sleeps = testing.AllocsPerRun(rounds, func() { e.Sleep(time.Microsecond) })
		wakes = testing.AllocsPerRun(rounds, func() {
			ping.Fire()
			pong.Wait()
			ping.Fire()
			pong.Wait()
		})
	})
	e.Run()
	if sleeps != 0 || wakes != 0 {
		t.Fatalf("allocs per hand-off: sleep %v, event wake %v; want 0, 0", sleeps, wakes)
	}
}

func TestSleepUntilPast(t *testing.T) {
	e := NewEngine()
	e.Go("p", func() {
		e.Sleep(time.Millisecond)
		e.SleepUntil(0) // in the past: must not move the clock back
		if e.Now() != Time(time.Millisecond) {
			t.Errorf("Now = %v, want 1ms", e.Now())
		}
	})
	e.Run()
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func() {
			e.Sleep(Duration(i) * time.Microsecond) // stagger arrival
			r.Acquire()
			order = append(order, i)
			e.Sleep(time.Millisecond)
			r.Release()
		})
	}
	e.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestResourceCapacity(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(3)
	maxInUse := 0
	for i := 0; i < 10; i++ {
		e.Go("p", func() {
			r.Acquire()
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			if r.InUse() > r.Capacity() {
				t.Errorf("InUse %d exceeds capacity %d", r.InUse(), r.Capacity())
			}
			e.Sleep(time.Millisecond)
			r.Release()
		})
	}
	e.Run()
	if maxInUse != 3 {
		t.Fatalf("maxInUse = %d, want 3", maxInUse)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	r := e.NewResource(1)
	r.Release()
}

// TestDeterminism runs a randomized mix of sleeps and events twice and
// requires identical interleavings.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var log []int
		ev := e.NewEvent()
		for i := 0; i < 20; i++ {
			i := i
			delays := make([]Duration, 5)
			for j := range delays {
				delays[j] = Duration(rng.Intn(100)) * time.Microsecond
			}
			e.Go("p", func() {
				for _, d := range delays {
					e.Sleep(d)
					log = append(log, i)
				}
				ev.Fire()
			})
		}
		return log
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, processes wake in sorted
// order of their durations (ties by spawn order).
func TestPropertyWakeOrderSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		e := NewEngine()
		type wake struct {
			d   uint16
			idx int
		}
		var got []wake
		for i, d := range raw {
			i, d := i, d
			e.Go("p", func() {
				e.Sleep(Duration(d) * time.Microsecond)
				got = append(got, wake{d, i})
			})
		}
		e.Run()
		return sort.SliceIsSorted(got, func(a, b int) bool {
			if got[a].d != got[b].d {
				return got[a].d < got[b].d
			}
			return got[a].idx < got[b].idx
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNowOutsideProcess(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("fresh engine Now = %v, want 0", e.Now())
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := Time(1500 * time.Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
}
