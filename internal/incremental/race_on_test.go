//go:build race

package incremental

// Flip raceEnabled (declared in alloc_test.go) when the race detector is
// active, so the allocation pin skips itself: the detector instruments
// allocations and the pinned count would not hold.
func init() { raceEnabled = true }
