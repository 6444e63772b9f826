//go:build !race

package runtime_test

const raceEnabled = false
