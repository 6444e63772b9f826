//go:build race

package serve

// raceEnabled reports that this binary was built with the race
// detector, under which sync.Pool deliberately drops items and
// allocation counts are not representative.
const raceEnabled = true
