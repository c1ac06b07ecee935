//go:build !linux

package rt

import "time"

// sleeper returns the sleep NewReal uses: time.Sleep, which outside Linux
// has no timerfd to replace it.
func sleeper() func(Duration) { return time.Sleep }
