package interp

import (
	"fmt"

	"fliptracker/internal/ir"
)

// Machine memory is paged behind a copy-on-write page table so snapshots are
// near-free: Snapshot copies the table (O(pages)) and marks every page shared
// on both sides instead of deep-copying the words (O(mem)); the first store
// into a shared page copies just that page. Fresh machines point every page
// at one immutable all-zero page, so NewMachine allocates no data memory at
// all — campaigns that build one machine per injection only ever materialize
// the pages a run actually writes.

const (
	// pageShift sizes a memory page at 512 words (4 KiB), the trade-off
	// between first-touch copy cost (one page) and page-table size.
	pageShift = 9
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// zeroPage backs every never-written page. It is shared by all machines and
// snapshots and must never be stored through: it never appears in a write
// table, so the store path always copies it first.
var zeroPage = new([pageWords]ir.Word)

// cowMem is a machine's paged data memory. Pages are fixed-size arrays
// referenced by pointer, so the interpreter's masked index into a page needs
// no bounds check. Two tables share the page pointers:
//
//   - pages is the read table: every entry is readable (possibly zeroPage,
//     possibly a page shared with snapshots).
//   - wpages is the write table: an entry is non-nil only when the machine
//     owns that page exclusively and may store through it in place; nil
//     means shared, and the store path copies the page first (own).
//
// Snapshot() copies the read table and nils the write table — O(pages) —
// after which both sides copy-on-write.
type cowMem struct {
	pages  []*[pageWords]ir.Word
	wpages []*[pageWords]ir.Word
	// words is the addressable size (the program's MemWords); the last page
	// may extend past it, but the padding is unreachable (every access is
	// bounds-checked against words).
	words int64
	// mat counts materialized pages — read-table entries not backed by
	// zeroPage. Zero-backed pages cost no storage, so mat*pageWords is the
	// memory a machine (or a snapshot of it) actually pins.
	mat int
}

func newCowMem(words int64) cowMem {
	npages := int((words + pageWords - 1) >> pageShift)
	c := cowMem{
		pages:  make([]*[pageWords]ir.Word, npages),
		wpages: make([]*[pageWords]ir.Word, npages),
		words:  words,
	}
	for i := range c.pages {
		c.pages[i] = zeroPage
	}
	return c
}

// own replaces the shared page pi with a private copy, enters it into the
// write table, and returns it. The old page stays untouched for whoever
// else references it.
func (c *cowMem) own(pi int) *[pageWords]ir.Word {
	old := c.pages[pi]
	np := new([pageWords]ir.Word)
	if old == zeroPage {
		c.mat++ // np is already zero; this table entry is newly materialized
	} else {
		*np = *old
	}
	c.pages[pi] = np
	c.wpages[pi] = np
	return np
}

// writable returns a pointer to the word at addr, copying its page first if
// it is shared. addr must be in [0, words).
func (c *cowMem) writable(addr int64) *ir.Word {
	pi := int(addr >> pageShift)
	pg := c.wpages[pi]
	if pg == nil {
		pg = c.own(pi)
	}
	return &pg[addr&pageMask]
}

// snapshotPages returns a copy of the read table with every page marked
// shared on the machine side (write table cleared), so later machine stores
// copy-on-write instead of mutating pages the caller now also references.
func (c *cowMem) snapshotPages() []*[pageWords]ir.Word {
	for i := range c.wpages {
		c.wpages[i] = nil
	}
	return append([]*[pageWords]ir.Word(nil), c.pages...)
}

// adoptShared points the read table at the given pages, all shared (write
// table cleared) — the restore side of snapshotPages. mat must be the
// materialized-page count of the adopted table.
func (c *cowMem) adoptShared(pages []*[pageWords]ir.Word, mat int) {
	c.pages = append(c.pages[:0], pages...)
	for i := range c.wpages {
		c.wpages[i] = nil
	}
	c.mat = mat
}

// samePages reports whether the read table holds the same words as pages,
// comparing by content only the pages the two tables do not share.
func (c *cowMem) samePages(pages []*[pageWords]ir.Word) bool {
	if len(c.pages) != len(pages) {
		return false
	}
	for i, pg := range c.pages {
		if pg != pages[i] && *pg != *pages[i] {
			return false
		}
	}
	return true
}

// MemLen returns the machine's addressable memory size in words.
func (m *Machine) MemLen() int { return int(m.mem.words) }

// MemAt returns the memory word at addr. It panics on an out-of-range
// address — external readers (hosts, tests) are expected to bounds-check
// against MemLen the way the interpreter's load path does.
func (m *Machine) MemAt(addr int64) ir.Word {
	m.checkAddr(addr)
	return m.mem.pages[addr>>pageShift][addr&pageMask]
}

// SetMemAt stores v at addr, copying the page first if it is shared with a
// snapshot. It panics on an out-of-range address.
func (m *Machine) SetMemAt(addr int64, v ir.Word) {
	m.checkAddr(addr)
	*m.mem.writable(addr) = v
}

// ReadMem copies len(dst) words starting at addr into dst. It panics when
// the range [addr, addr+len(dst)) is out of bounds.
func (m *Machine) ReadMem(dst []ir.Word, addr int64) {
	m.checkRange(addr, int64(len(dst)))
	for len(dst) > 0 {
		pg := m.mem.pages[addr>>pageShift]
		n := copy(dst, pg[addr&pageMask:])
		dst = dst[n:]
		addr += int64(n)
	}
}

// WriteMem copies src into memory starting at addr, copy-on-writing every
// shared page it touches. It panics when the range is out of bounds.
func (m *Machine) WriteMem(addr int64, src []ir.Word) {
	m.checkRange(addr, int64(len(src)))
	for len(src) > 0 {
		pi := int(addr >> pageShift)
		pg := m.mem.wpages[pi]
		if pg == nil {
			pg = m.mem.own(pi)
		}
		n := copy(pg[addr&pageMask:], src)
		src = src[n:]
		addr += int64(n)
	}
}

func (m *Machine) checkAddr(addr int64) {
	if addr < 0 || addr >= m.mem.words {
		panic(fmt.Sprintf("interp: memory address %d out of range [0,%d)", addr, m.mem.words))
	}
}

func (m *Machine) checkRange(addr, n int64) {
	if addr < 0 || n < 0 || addr+n > m.mem.words {
		panic(fmt.Sprintf("interp: memory range [%d,%d) out of range [0,%d)", addr, addr+n, m.mem.words))
	}
}
