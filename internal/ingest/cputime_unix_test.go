//go:build unix

package ingest

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time (user plus system) the test process
// has consumed so far, across all its threads, and true. The overhead
// budgets time their arms with it rather than with the wall clock: a
// run that is descheduled on a shared machine loses wall time but not
// CPU time.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
