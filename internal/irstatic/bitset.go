package irstatic

// bitset is a fixed-capacity bit vector used by the dataflow fixpoints.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int) { b[i>>6] |= uint64(1) << (uint(i) & 63) }

func (b bitset) clear(i int) { b[i>>6] &^= uint64(1) << (uint(i) & 63) }

// or unions o into b and reports whether b changed.
func (b bitset) or(o bitset) bool {
	changed := false
	for i, w := range o {
		if nw := b[i] | w; nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}
