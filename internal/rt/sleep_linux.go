//go:build linux

package rt

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// time.Sleep parks a goroutine on the runtime's timer, which Linux builds
// of Go wait out in epoll_wait with a timeout in whole milliseconds: a
// sleep below a millisecond takes one, a longer one ends up to a
// millisecond late. A sleep on a timerfd the netpoller watches ends when
// the fd becomes readable: on an idle 2-vCPU box 12–22 µs late for 61 µs
// asked and 87–149 µs late for 1.3 ms, where time.Sleep was ~1 ms late
// for either (BenchmarkRealSleep, BenchmarkRealSleepLump).

// timerFreeMax bounds the timerfds kept open for reuse; a sleeper that
// finds the free list empty opens one, and a timerfd returned to a full
// list is closed. An idle timerfd costs one fd. 64 covers the sleepers of
// the default serving sweep at once (up to MPL 32 one-thread queries and
// the ABM loader): an elevator requester waiting for its device to free
// sleeps in its own thread, one of those 32, so the wait adds no
// sleeper; past 64, a sleep also pays a timerfd_create and a close.
const timerFreeMax = 64

var timerFree = make(chan *timerfd, timerFreeMax)

// timerfd is one CLOCK_MONOTONIC timerfd. The raw fd is kept beside the
// file because File.Fd would put the file in blocking mode, and a read
// must park in the netpoller, not hold a thread.
type timerfd struct {
	f  *os.File
	fd uintptr
}

// timerfdCreate opens a non-blocking CLOCK_MONOTONIC timerfd; tests
// replace it to force the fallback.
var timerfdCreate = func() (uintptr, syscall.Errno) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	return fd, errno
}

// sleeper returns the sleep NewReal uses: timerfdSleep when the runtime's
// clock is the OS clock, and time.Sleep otherwise — inside a
// testing/synctest bubble time.Now is a fake clock that only time.Sleep
// moves, and it starts in the year 2000.
func sleeper() func(Duration) {
	var tv syscall.Timeval
	if syscall.Gettimeofday(&tv) != nil || time.Since(time.Unix(tv.Unix())).Abs() > time.Second {
		return time.Sleep
	}
	return timerfdSleep
}

// timerfdSleep sleeps d > 0 on a timerfd armed relative to the call, so
// it never ends early. When no timerfd opens, or arming or reading it
// fails, it sleeps d with time.Sleep: late, but never early.
func timerfdSleep(d Duration) {
	if t := getTimerfd(); t != nil {
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {it_interval, it_value}: one shot
		var buf [8]byte
		if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno == 0 {
			if _, err := t.f.Read(buf[:]); err == nil {
				select {
				case timerFree <- t:
				default:
					t.f.Close()
				}
				return
			}
		}
		t.f.Close()
	}
	time.Sleep(d)
}

// getTimerfd takes a timerfd off the free list or opens one; nil if none
// opens.
func getTimerfd() *timerfd {
	select {
	case t := <-timerFree:
		return t
	default:
	}
	fd, errno := timerfdCreate()
	if errno != 0 {
		return nil
	}
	return &timerfd{f: os.NewFile(fd, "timerfd"), fd: fd}
}
