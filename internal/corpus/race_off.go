//go:build !race

package corpus

const RaceEnabled = false
