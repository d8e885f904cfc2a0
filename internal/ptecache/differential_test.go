package ptecache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/phys"
)

// diffCache reports the first way where the bitmap cache and the
// reference model disagree — on validity, on the address or LRU stamp of
// a valid line, or on the LRU clock — or "" when they agree.
func diffCache(got *Cache, want *refCache) string {
	if got.clock != want.clock {
		return fmt.Sprintf("clock %d, want %d", got.clock, want.clock)
	}
	for si, set := range want.sets {
		for w, rl := range set {
			valid := got.live[si]&(1<<w) != 0
			if valid != rl.valid {
				return fmt.Sprintf("set %d way %d valid=%v, want %v", si, w, valid, rl.valid)
			}
			if l := got.set(si)[w]; valid && (l.addr != rl.addr || l.lru != rl.lru) {
				return fmt.Sprintf("set %d way %d holds %+v, want %+v", si, w, l, rl)
			}
		}
	}
	return ""
}

// runOps decodes data three bytes per op into Touch, Evict, Flush,
// Snapshot and Restore calls on a sets×ways cache and on the reference
// model, and fails at the first observable or internal difference. The
// frames and entry indexes come from small ranges, so lines collide in
// every set.
func runOps(t *testing.T, sets, ways int, data []byte) {
	t.Helper()
	c, ref := New(sets, ways), newRefCache(sets, ways)
	var snaps []Snapshot
	var refSnaps []refSnapshot
	for n := 0; len(data) >= 3; n++ {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		frame, idx := phys.PFN(a%32), int(b)*2
		what := ""
		switch op % 16 {
		default:
			what = fmt.Sprintf("Touch(%d, %d)", frame, idx)
			if hit, want := c.Touch(frame, idx), ref.Touch(frame, idx); hit != want {
				t.Fatalf("op %d %s = %v, want %v", n, what, hit, want)
			}
		case 10, 11:
			what = fmt.Sprintf("Evict(%d, %d)", frame, idx)
			c.Evict(frame, idx)
			ref.Evict(frame, idx)
		case 12:
			what = "Flush"
			c.Flush()
			ref.Flush()
		case 13:
			what = "Snapshot"
			snaps = append(snaps, c.Snapshot())
			refSnaps = append(refSnaps, ref.Snapshot())
		case 14:
			if len(snaps) == 0 {
				continue
			}
			i := int(a) % len(snaps)
			what = fmt.Sprintf("Restore(%d)", i)
			c.Restore(snaps[i])
			ref.Restore(refSnaps[i])
		}
		if got, want := c.Resident(), ref.Resident(); got != want {
			t.Fatalf("op %d %s: Resident %d, want %d", n, what, got, want)
		}
		if diff := diffCache(c, ref); diff != "" {
			t.Fatalf("op %d %s: %s", n, what, diff)
		}
	}
}

func randomOps(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 0x11e5))
	data := make([]byte, 3*n)
	for i := range data {
		data[i] = byte(r.Uint32())
	}
	return data
}

// The bitmap cache must be indistinguishable from the valid-flag
// reference: same hits, same counts and the same state after every op,
// snapshot restores included.
func TestMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		for _, geo := range [][2]int{{1, 2}, {4, 3}, {16, 8}, {8, 16}} {
			runOps(t, geo[0], geo[1], randomOps(seed, 2000))
		}
	}
}

func FuzzMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 200))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runOps(t, 4, 3, data)
	})
}
