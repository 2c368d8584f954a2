package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/obs"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// scale multiplies every element of xs by k (a unit change).
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// histDelta subtracts an earlier snapshot of the same histogram from a
// later one, leaving the observations made in between.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Bounds: after.Bounds, Counts: append([]int64(nil), after.Counts...),
		Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range before.Counts {
		if i < len(d.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// histAdd sums two snapshots of histograms with the same bounds; the
// zero value adds nothing.
func histAdd(a, b obs.HistSnapshot) obs.HistSnapshot {
	if len(a.Counts) < len(b.Counts) {
		a, b = b, a
	}
	d := histDelta(a, obs.HistSnapshot{})
	d.Count += b.Count
	d.Sum += b.Sum
	for i, c := range b.Counts {
		d.Counts[i] += c
	}
	return d
}

// histQuantile estimates the q-quantile of a fixed-bucket histogram by
// linear interpolation inside the bucket holding the target rank (the
// Prometheus histogram_quantile rule). Observations in the +Inf bucket
// report the highest finite bound. 0 when the histogram is empty.
func histQuantile(h obs.HistSnapshot, q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(rank-float64(cum))/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB;
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// roundAll rounds xs to the given decimals, for report lines.
func roundAll(xs []float64, decimals int) []float64 {
	k := math.Pow(10, float64(decimals))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*k) / k
	}
	return out
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
