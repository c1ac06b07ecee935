package rt

import (
	"sync"
	"testing"
	"time"
)

// sleepSizes are the real sleeps a paced run asks for: a sub-vector
// charge, one vector's CPU, a few device reads, a lump and the credit cap.
var sleepSizes = []Duration{time.Microsecond, 61 * time.Microsecond, 300 * time.Microsecond, 1300 * time.Microsecond, 4 * time.Millisecond}

// checkSleepsNeverEarly has 8 goroutines each sleep every size with
// Sleep and with SleepUntil, and fails if any sleep ends before its
// deadline.
func checkSleepsNeverEarly(t *testing.T, r Runtime) {
	t.Helper()
	var mu sync.Mutex
	var early []string
	report := func(what string, d, got Duration) {
		mu.Lock()
		early = append(early, what+" "+d.String()+" took "+got.String())
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range sleepSizes {
				t0 := time.Now()
				r.Sleep(d)
				if got := time.Since(t0); got < d {
					report("Sleep", d, got)
				}
				start := r.Now()
				r.SleepUntil(start + Time(d))
				if got := Duration(r.Now() - start); got < d {
					report("SleepUntil", d, got)
				}
			}
		}()
	}
	wg.Wait()
	if len(early) > 0 {
		t.Fatalf("%d sleeps ended early: %v", len(early), early)
	}
}

func TestRealSleepNeverEarly(t *testing.T) { checkSleepsNeverEarly(t, NewReal()) }
