package lsm

import (
	"fmt"
	"math/bits"
)

// Maplet slots (PolicyMaplet). The global maplet is the store's primary
// index, and a slot holds a fingerprint remainder and the id of the run
// holding the key, nothing else: the run's radix start table finds the
// key's span (run.span), so every bit the run id does not need goes to
// the remainder, which sets the maplet's ε (tutorial §2.4).
//
// The run-id width w names every id the store holds at once: the level
// tree's runs, the runs one flush-and-compact cycle creates while those
// it retires keep their ids, and up to L0RunBudget retired runs a
// durable store keeps until a checkpoint releases them, in a tree no
// deeper than the maplet's capacity admits (mapletDepth). A checkpoint
// racing a compaction releases only the runs retired before its pin
// (release), but the engine checkpoints before a flush whenever it
// holds more (drainBackground), and being idle then, pins the view it
// published last and releases them all. w follows from the options the
// manifest records and the default L0RunBudget, so foreground builds
// and Background serves agree on it.

// The maplet starts at 2^mapletQ0 slots with mapletR0-bit remainders
// and gives up one remainder bit per doubling: r0 = 16 keeps r ≥ 7 at
// 2^20 keys, after nine doublings.
const (
	mapletQ0 = 12
	mapletR0 = 16
	// mapletMaxRunBits is the widest run id a slot can carry next to
	// the initial remainder (quotient.NewMaplet allows r+vBits ≤ 58).
	mapletMaxRunBits = 58 - mapletR0
)

// mapletDepth is the deepest a maplet store's tree grows. Level L ≥ 1
// opens once level L−1 held over MemtableSize·T^L entries, all maplet
// entries, so the maplet's capacity bounds it; but tiered levels open by
// run count: level 1 always, and Tiering's last level merges in place.
func mapletDepth(o *Options) int {
	capacity := mapletCapacity(1 << (mapletQ0 + mapletR0 - 1)) // every r bit but one doubled
	d := 1
	for c, t := uint64(o.MemtableSize), uint64(o.SizeRatio); c <= capacity/t; c *= t {
		d++
	}
	if o.Compaction == Leveling {
		return d
	}
	return max(d, 2)
}

// mapletCapacity is how many entries a maplet holds once it has
// doubled to its final slot count and reached mapletMaxLoad.
func mapletCapacity(finalSlots uint64) uint64 {
	return uint64(mapletMaxLoad * float64(finalSlots))
}

// mapletTreeIDs bounds the ids the level tree and one flush-and-compact
// cycle hold at once: per level, its runs at rest (one leveled, up to
// T−1 tiered) and one created. It counts in 64 bits on every GOARCH, so
// a 32-bit build accepts and refuses exactly the options a 64-bit one
// does.
func mapletTreeIDs(o *Options) uint64 {
	// Capped so the product cannot overflow; past the cap no width fits.
	d, t := uint64(mapletDepth(o)), min(uint64(o.SizeRatio), 1<<mapletMaxRunBits)
	if o.Compaction == Leveling {
		return 2 * d
	}
	return d * t
}

// mapletRunBits derives the run-id width for filled, validated options
// and checks that their L0RunBudget fits it.
func mapletRunBits(o *Options) (uint, error) {
	tree := mapletTreeIDs(o)
	w := uint(bits.Len64(tree + defaultL0RunBudget))
	if w > mapletMaxRunBits {
		return 0, fmt.Errorf("lsm: MemtableSize %d, SizeRatio %d and Compaction %d can hold %d runs, more than a %d-bit maplet run id names",
			o.MemtableSize, o.SizeRatio, o.Compaction, tree, mapletMaxRunBits)
	}
	if most := uint64(1)<<w - 1 - tree; uint64(o.L0RunBudget) > most {
		return 0, fmt.Errorf("lsm: L0RunBudget %d exceeds %d, the retired-run allowance of this maplet store's %d-bit run ids",
			o.L0RunBudget, most, w)
	}
	return w, nil
}
