package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// tailPercentile is the p-th percentile as op_tail_ms reports it. When
// the ops, in completion order, fill at least three slices of 10/(1-p)
// consecutive ops, each with ten samples beyond p, it is the median of the
// slices' percentiles, so one burst of slow ops moves only its own slice.
// Otherwise it is the percentile of the whole window.
func tailPercentile(lat []float64, p float64) float64 {
	size := int(math.Round(10 / (1 - p)))
	if len(lat) < 3*size {
		return percentile(lat, p)
	}
	var slices []float64
	for i := 0; i+size <= len(lat); i += size {
		slices = append(slices, percentile(lat[i:i+size], p))
	}
	return median(slices)
}

// quartiles returns the first quartile, the median and the third quartile
// exactly as Python's statistics.quantiles(vals, n=4) (the default
// exclusive method) and statistics.median give them.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfCPUSeconds is the user+system CPU time of this process.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPUSeconds reads user+system CPU time of a process from
// /proc/<pid>/stat, at 10 ms resolution.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it start past
	// the last ')'. utime and stime are fields 14 and 15 of the line,
	// i.e. 12 and 13 of the remainder.
	line := string(b)
	rest := strings.Fields(line[strings.LastIndexByte(line, ')')+1:])
	if len(rest) < 13 {
		return 0, os.ErrInvalid
	}
	ut, err1 := strconv.ParseFloat(rest[11], 64)
	st, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return 0, os.ErrInvalid
	}
	return (ut + st) / clockTicks, nil
}

// procStatusMB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status, in MiB. pid 0 reads this process.
func procStatusMB(pid int, field string) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fs := strings.Fields(line[len(field)+1:])
		if len(fs) == 0 {
			return 0
		}
		kb, _ := strconv.ParseFloat(fs[0], 64)
		return kb / 1024
	}
	return 0
}
