//go:build !unix

package main

// cpuSeconds is unavailable off unix; cpu_ms_per_op reads 0 there.
func cpuSeconds() float64 { return 0 }
