package rt

import (
	"os"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestRealSleepOvershootSubMillisecond: real sleeps end within 200 µs of
// their deadline, where the runtime's millisecond timer made every 61 µs
// sleep take at least a millisecond. It bounds the fastest tenth, not the
// median: with the CPUs busy, most wake-ups also wait for a time slice
// (the median read 3.9 ms beside two spinning processes on 2 vCPUs),
// while the fastest tenth stayed under 30 µs.
func TestRealSleepOvershootSubMillisecond(t *testing.T) {
	r := NewReal()
	const d = 61 * time.Microsecond
	over := make([]Duration, 50)
	for i := range over {
		t0 := time.Now()
		r.Sleep(d)
		over[i] = time.Since(t0) - d
	}
	slices.Sort(over)
	if p10 := over[len(over)/10]; p10 >= 200*time.Microsecond {
		t.Fatalf("the fastest tenth of %v sleeps overshoot by up to %v, want < 200µs (min %v, median %v)", d, p10, over[0], over[len(over)/2])
	}
}

// TestRealSleepFdsBounded: sleeps reuse their timerfds, and no more than
// the free list's bound stays open after them.
func TestRealSleepFdsBounded(t *testing.T) {
	r := NewReal()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000/16; i++ {
				r.Sleep(10 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip(err)
	}
	if len(fds) > timerFreeMax+16 {
		t.Fatalf("%d fds open after 1000 sleeps from 16 goroutines, want at most %d", len(fds), timerFreeMax+16)
	}
}

// TestRealSleepFallbackNeverEarly: with no timerfd to open, sleeps fall
// back to time.Sleep and still never end early.
func TestRealSleepFallbackNeverEarly(t *testing.T) {
	var mu sync.Mutex
	failed := 0
	create := timerfdCreate
	timerfdCreate = func() (uintptr, syscall.Errno) {
		mu.Lock()
		failed++
		mu.Unlock()
		return 0, syscall.EMFILE
	}
	defer func() { timerfdCreate = create }()
	for len(timerFree) > 0 {
		(<-timerFree).f.Close()
	}
	checkSleepsNeverEarly(t, NewReal())
	if failed == 0 {
		t.Fatal("no sleep tried to open a timerfd")
	}
}
