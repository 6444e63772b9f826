package tensor

// FreeListPacks counts the packs carried by tensors sitting in the
// exact-size free lists — buffers nobody holds. Release takes a
// tensor's packs off before it parks it, so the count is zero unless
// that rule broke.
func FreeListPacks() (tensors, packs int) {
	free.Lock()
	defer free.Unlock()
	for _, l := range free.lists {
		for _, t := range l {
			tensors++
			for _, p := range t.packs {
				if p.buf != nil {
					packs++
				}
			}
		}
	}
	return tensors, packs
}
