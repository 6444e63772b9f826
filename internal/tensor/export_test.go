package tensor

// FreeCounts reports how many buffers the exact-size free lists hold,
// by element count; sizes whose list is empty are absent.
func FreeCounts() map[int]int {
	free.Lock()
	defer free.Unlock()
	counts := make(map[int]int, len(free.lists))
	for n, l := range free.lists {
		if len(l) > 0 {
			counts[n] = len(l)
		}
	}
	return counts
}

// OnFreeList reports whether t sits on its size's free list.
func OnFreeList(t *Tensor) bool {
	free.Lock()
	defer free.Unlock()
	for _, l := range free.lists[len(t.data)] {
		if l == t {
			return true
		}
	}
	return false
}
