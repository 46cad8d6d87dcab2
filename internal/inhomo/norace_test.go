//go:build !race

package inhomo

// raceEnabled reports that this test binary was built with -race, under
// which allocation counts are inflated by detector bookkeeping.
const raceEnabled = false
