//go:build unix

package main

import "syscall"

// cpuSeconds returns the user+system CPU time this process and its
// reaped children (site_proc's workers) have consumed. Injected wire
// time is slept, not burned, so it is absent from this number.
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue
		}
		total += float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	return total
}
