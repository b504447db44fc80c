package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared VM other tenants take part of the CPU time the guest asks
// for: "steal", time the program was runnable and the hypervisor ran
// someone else. Here it comes and goes over minutes and is at times as
// large as the time granted, so the raw wall-clock median of the same
// operation moves by 25-90 % from one run to the next (README.md has the
// measurements) -- more than any bound the benchmark contract allows.
// Steal is the one noise the kernel accounts for, so every timing sample
// is scaled by the share of the demanded CPU time that was granted in
// the window it was taken in. Without steal the scale is exactly 1; the
// uncorrected median is reported beside every timing.

// cpuTimes is the machine's CPU accounting since boot, in seconds summed
// over CPUs: busy is time spent running anything, steal is time a
// runnable CPU waited for the hypervisor.
type cpuTimes struct{ busy, steal float64 }

// readCPUTimes parses the first line of /proc/stat (ticks of 10 ms):
// cpu user nice system idle iowait irq softirq steal guest guest_nice.
func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	ticks := make([]float64, 8)
	for i := range ticks {
		v, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return cpuTimes{}, false
		}
		ticks[i] = v / 100
	}
	return cpuTimes{busy: ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6], steal: ticks[7]}, true
}

// minWindow is the shortest stretch the accounting is read over when
// operations follow each other: ticks are 10 ms, so shorter operations
// share a window.
const minWindow = 250 * time.Millisecond

// window is a stretch of wall time with the CPU accounting at its start.
type window struct {
	t0 time.Time
	c0 cpuTimes
	ok bool
}

func openWindow() window {
	c, ok := readCPUTimes()
	return window{t0: time.Now(), c0: c, ok: ok}
}

// close returns the window's wall seconds and the busy and stolen CPU
// seconds inside it (zero when the accounting cannot be read).
func (w window) close() (wall, busy, steal float64) {
	wall = time.Since(w.t0).Seconds()
	c, ok := readCPUTimes()
	if !w.ok || !ok {
		return wall, 0, 0
	}
	return wall, c.busy - w.c0.busy, c.steal - w.c0.steal
}

// preemptionCost is what a stolen second costs beyond itself. Fitted on
// this host: the slope of an operation's wall time against the steal in
// its window is 1.4-1.6 s per stolen second on the paper-scale plans
// (compute-bound: the guest resumes on cold caches, and a busy host also
// runs the sibling hyperthread), about 2 on the ladder's, and about 1 on
// the executors', which mostly wait for wake-ups. 1.25 leaves the least
// spread over all of them (README.md has the table).
const preemptionCost = 0.25

// shortSample is the length below which a sample is kept as read. A
// preemption lasts about a millisecond or more: an operation far shorter
// than that either meets one or does not, and the median is of those that
// do not, so scaling them all by the window's share would only add noise
// (measured: 6-10 % spread as read, 17-60 % scaled).
const shortSample = time.Millisecond

// timeScale is wall0/wall for a window of wall seconds in which the
// machine's CPUs ran for busy seconds and were held back for steal
// seconds. With P CPUs busy on average, steal stretches the wall by
// steal/P. When demand (busy+steal) is at least one CPU, P = busy/wall0
// and wall0 = wall*busy/(busy+steal); when the program mostly waits
// (demand below one CPU) each stolen second delays it by one second and
// wall0 = wall-steal. The two agree where demand is exactly one CPU.
func timeScale(wall, busy, steal float64) float64 {
	steal *= 1 + preemptionCost
	if steal <= 0 || wall <= 0 || busy <= 0 {
		return 1
	}
	if busy+steal >= wall {
		return busy / (busy + steal)
	}
	return (wall - steal) / wall
}
