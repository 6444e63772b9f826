package runtime

// PoisonReleased turns the use-after-release canary on for the calling
// test and returns the function that turns it off again: while on,
// every buffer going back to a free list is overwritten with NaN.
func PoisonReleased() (restore func()) {
	poisonReleased = true
	return func() { poisonReleased = false }
}
