//go:build !race

package sim

// raceDetector reports whether the tests run under -race, whose
// instrumentation moves more values to the heap.
const raceDetector = false
