//go:build !unix

package ingest

import "time"

// processCPU reports false where process CPU time is not available; the
// overhead budgets then fall back to the wall clock.
func processCPU() (time.Duration, bool) { return 0, false }
