// Package mem provides address arithmetic shared by every memory-system
// component: cache-block alignment, set indexing, and tag extraction.
//
// All structures in this repository describe cache-like geometry with a
// Geometry value, which pre-computes the bit splits so that the hot paths
// (Index, Tag, BlockAddr) are single shift/mask operations.
package mem

import "fmt"

// Addr is a physical byte address. The paper simulates a 1 GB (30-bit)
// physical space; we keep the full 64-bit width and let workloads confine
// themselves to whatever footprint they need.
type Addr uint64

// Log2 returns the base-2 logarithm of x and reports whether x is a positive
// power of two.
func Log2(x int) (uint, bool) {
	if x <= 0 || x&(x-1) != 0 {
		return 0, false
	}
	n := uint(0)
	for x > 1 {
		x >>= 1
		n++
	}
	return n, true
}

// Geometry describes the block and set geometry of a cache-like structure.
// Addresses split, from least to most significant bits, into
// [block offset | set index | tag].
type Geometry struct {
	blockSize int
	sets      int
	blockBits uint
	setBits   uint
}

// NewGeometry builds a Geometry for the given block size (bytes) and number
// of sets. Both must be powers of two; blockSize must be at least 1 and sets
// at least 1.
func NewGeometry(blockSize, sets int) (Geometry, error) {
	bb, ok := Log2(blockSize)
	if !ok {
		return Geometry{}, fmt.Errorf("mem: block size %d is not a positive power of two", blockSize)
	}
	sb, ok := Log2(sets)
	if !ok {
		return Geometry{}, fmt.Errorf("mem: set count %d is not a positive power of two", sets)
	}
	return Geometry{blockSize: blockSize, sets: sets, blockBits: bb, setBits: sb}, nil
}

// MustGeometry is NewGeometry that panics on invalid parameters. It is meant
// for package-level defaults and tests where the parameters are constants.
func MustGeometry(blockSize, sets int) Geometry {
	g, err := NewGeometry(blockSize, sets)
	if err != nil {
		panic(err)
	}
	return g
}

// BlockSize returns the block size in bytes.
func (g Geometry) BlockSize() int { return g.blockSize }

// Sets returns the number of sets.
func (g Geometry) Sets() int { return g.sets }

// BlockBits returns the number of block-offset bits.
func (g Geometry) BlockBits() uint { return g.blockBits }

// SetBits returns the number of set-index bits.
func (g Geometry) SetBits() uint { return g.setBits }

// BlockAddr returns a rounded down to its block boundary.
func (g Geometry) BlockAddr(a Addr) Addr {
	return a &^ (Addr(g.blockSize) - 1)
}

// BlockNumber returns the block-frame number of a (the address divided by
// the block size).
func (g Geometry) BlockNumber(a Addr) Addr {
	return a >> g.blockBits
}

// Index returns the set index for address a.
func (g Geometry) Index(a Addr) int {
	return int((a >> g.blockBits) & (Addr(g.sets) - 1))
}

// Tag returns the tag for address a (the address bits above the set index).
func (g Geometry) Tag(a Addr) Addr {
	return a >> (g.blockBits + g.setBits)
}

// Rebuild reconstructs the block-aligned address for a (tag, index) pair.
// It is the inverse of (Tag, Index) up to block alignment.
func (g Geometry) Rebuild(tag Addr, index int) Addr {
	return tag<<(g.blockBits+g.setBits) | Addr(index)<<g.blockBits
}

// KiB and MiB are byte-size helpers used throughout the configs.
const (
	KiB = 1 << 10
	MiB = 1 << 20
)
