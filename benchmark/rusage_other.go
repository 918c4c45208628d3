//go:build !unix

package main

import "time"

// cpuTime is unavailable here; cpu_ms_per_op reads 0 and the run says so.
func cpuTime() time.Duration { return 0 }
