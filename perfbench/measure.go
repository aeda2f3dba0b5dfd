package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is the process and host state at one instant; a measured
// phase's resource figures are the difference of two snapshots.
type procSnap struct {
	wall                 time.Time
	cpu                  time.Duration // process user+sys
	allocBytes, gcCycles uint64
	gcCPU, busyCPU       float64 // runtime CPU classes, seconds
	schedLat             *metrics.Float64Histogram
	stealTicks, allTicks uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

func takeProcSnap() procSnap {
	s := procSnap{wall: time.Now(), cpu: processCPU()}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.gcCycles = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	s.busyCPU = ms[3].Value.Float64() - ms[4].Value.Float64()
	s.schedLat = ms[5].Value.Float64Histogram()
	s.stealTicks, s.allTicks = readStat()
	return s
}

// processCPU is the process's user+sys time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procDelta is one measured phase's process and host figures.
type procDelta struct {
	wall                 time.Duration
	allocBytes, gcCycles uint64
	gcCPUPct             float64
	schedWaitP90         time.Duration
	stealPct             float64
}

func diffProc(a, b procSnap) procDelta {
	d := procDelta{
		wall:       b.wall.Sub(a.wall),
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
	}
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		d.gcCPUPct = 100 * (b.gcCPU - a.gcCPU) / busy
	}
	if all := b.allTicks - a.allTicks; all > 0 {
		d.stealPct = 100 * float64(b.stealTicks-a.stealTicks) / float64(all)
	}
	d.schedWaitP90 = histQuantile(a.schedLat, b.schedLat, 0.9)
	return d
}

// histQuantile is the q-quantile of the samples a runtime/metrics histogram
// gained between two readings, interpolated linearly inside its bucket.
// The scheduler-latency buckets are exponential with fine sub-buckets, so
// the error is a small share of the value.
func histQuantile(a, b *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			sec := lo + (hi-lo)*(rank-seen)/float64(c)
			return time.Duration(sec * float64(time.Second))
		}
		seen += float64(c)
	}
	return 0
}

// readStat returns the host's steal ticks and total ticks from the
// aggregate line of /proc/stat (zeros where it is unreadable).
func readStat() (steal, all uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		all += v
		if i == 8 {
			steal = v
		}
	}
	return steal, all
}

// tcpTimeWait is the host's TIME_WAIT socket count from /proc/net/sockstat,
// or -1 where it is unreadable.
func tcpTimeWait() int64 {
	f, err := os.Open("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) == 0 || fs[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(fs); i += 2 {
			if fs[i] == "tw" {
				n, err := strconv.ParseInt(fs[i+1], 10, 64)
				if err == nil {
					return n
				}
			}
		}
	}
	return -1
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostLine records what the figures were measured on.
func hostLine(stealPct float64, timeWait int64) string {
	return fmt.Sprintf("host: nproc=%d cpu=%q gomaxprocs=%d go=%s steal_pct=%.2f tcp_timewait_start=%d",
		runtime.NumCPU(), cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), stealPct, timeWait)
}

// liveHeap forces two collections (the second empties the sync.Pool
// victim caches the first left behind) and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile is the q-quantile of raw samples by linear interpolation
// between order statistics; it sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
