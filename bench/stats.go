package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quietShare is the share of a class's requests, its fastest, whose mean
// latency is the class's quiet latency. Of shares from a twentieth down
// to the single fastest request, the smaller repeated better from run to
// run (README, "How steady it is"); a hundredth still averages ten or more
// of serve-hot's scans, the class its median falls in.
const quietShare = 0.01

// quietLatencies replaces each latency by the quiet latency of its class:
// the mean of the fastest quietShare of the class's latencies, at least
// one.
func quietLatencies(lat []float64, class []string) []float64 {
	byClass := map[string][]float64{}
	for i, l := range lat {
		byClass[class[i]] = append(byClass[class[i]], l)
	}
	quiet := make(map[string]float64, len(byClass))
	for c, ls := range byClass {
		sort.Float64s(ls)
		quiet[c] = mean(ls[:max(1, int(quietShare*float64(len(ls))))])
	}
	out := make([]float64, len(lat))
	for i := range lat {
		out[i] = quiet[class[i]]
	}
	return out
}

// percentile is the nearest-rank p-quantile, the estimator the scheduler's
// own latency report uses (sched.Percentile), over float samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// spreads printed here match the driver's. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM on Linux,
// the Go runtime's total reservation elsewhere.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
