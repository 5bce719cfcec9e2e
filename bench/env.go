package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workers is p, the worker and client count of every timed op: one core
// fewer than the machine has (never fewer than 1, never more than 4). The
// core left over takes the operating system, the Go runtime's own
// threads and whatever else the host schedules, so the timed threads are
// not the ones that get descheduled: on the 2-vCPU sandbox two busy
// threads run at anything between one and two cores' worth from second
// to second, one busy thread does not (README, "Noise").
func workers() int { return max(min(runtime.NumCPU(), 4)-1, 1) }

// scaleWorkers is the width of the scaling probes of the traced run
// (p-worker fill, Apply and convolve against one worker): every core, at
// most 4. Those numbers have no bound; they answer "does it scale", which
// one worker cannot.
func scaleWorkers() int { return min(runtime.NumCPU(), 4) }

// atWidth runs f with GOMAXPROCS raised to w, for the scaling probes.
func atWidth(w int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
	f()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAllocMB is the cumulative heap allocation of the process.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// loadAvg1 is the 1-minute load average, or -1 where /proc has none.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuTimes is the machine's cumulative CPU time, in jiffies, from the
// first line of /proc/stat: ran is time the guest's CPUs executed
// something, stolen is time they wanted to and the hypervisor ran another
// guest instead, total includes idle. The zero value stands for "no
// /proc/stat here".
type cpuTimes struct{ ran, stolen, total float64 }

func readCPUTimes() (c cpuTimes) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			c.stolen += v
		case 8, 9: // guest, guest_nice: already in user and nice
			continue
		default:
			c.ran += v
		}
		c.total += v
	}
	return c
}

// stolenShare is the share of the CPU time the machine asked for between
// two readings that the hypervisor gave to someone else. A process that
// keeps its p threads busy is stretched by exactly that share: its wall
// time times (1 - share) is what it would have taken on CPUs of its own.
func stolenShare(from, to cpuTimes) float64 {
	stolen, ran := to.stolen-from.stolen, to.ran-from.ran
	if stolen <= 0 || stolen+ran <= 0 {
		return 0
	}
	return stolen / (stolen + ran)
}

// unstolen is the wall time of f in seconds, less the share of it the
// hypervisor took.
func unstolen(f func()) float64 {
	c0, t0 := readCPUTimes(), time.Now()
	f()
	return time.Since(t0).Seconds() * (1 - stolenShare(c0, readCPUTimes()))
}

// busyCores is how many cores' worth of CPU other processes and other
// guests use right now: /proc/stat sampled across a short sleep of this
// process. It is -1 where /proc has no stat.
func busyCores() float64 {
	c0 := readCPUTimes()
	time.Sleep(200 * time.Millisecond)
	c1 := readCPUTimes()
	if c1.total <= c0.total {
		return -1
	}
	return (c1.ran + c1.stolen - c0.ran - c0.stolen) / (c1.total - c0.total) * float64(runtime.NumCPU())
}

// noisy reports a neighbour loading the machine: more than half the
// cores busy before the workload has started. The issue asked for the
// 1-minute load average as the signal; it is recorded, but back-to-back
// workloads each leave it near p, so it would tag every run after the
// first. The instantaneous CPU share sees only what is running now.
func noisy(busy float64) bool { return busy > 0.5*float64(runtime.NumCPU()) }

// environment is what every recorded number is only comparable within.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`       // of every timed op
	ScaleWidth int     `json:"scale_workers"` // of the scaling probes
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_avg_1m_at_start"`
}

func currentEnvironment(commit string) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers(),
		ScaleWidth: scaleWorkers(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		LoadAvg1:   loadAvg1(),
	}
}
