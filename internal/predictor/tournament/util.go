package tournament

import "fmt"

// log2 returns floor(log2(n)) for n ≥ 1.
func log2(n int) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// checkPow2 panics unless n is a positive power of two; table geometries
// in this package are all power-of-two, as in package predictor.
func checkPow2(name string, n int) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("tournament: %s must be a positive power of two, got %d", name, n))
	}
}

// satInc increments a saturating counter bounded by max.
func satInc(c, max uint8) uint8 {
	if c < max {
		return c + 1
	}
	return c
}
