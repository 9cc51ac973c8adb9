package core

import (
	"fmt"
	"testing"
)

// BenchmarkSelectAnchors isolates the anchor-selection phase (the ~8%
// companion of pattern extraction, Sec. 7.4) across strategies, anchor
// counts and window lengths; L = 4032 is the two-week window the serving
// benchmark's impute workload runs. All strategies run through the shared
// selection scratch, so the numbers measure the algorithms, not the
// allocator.
func BenchmarkSelectAnchors(b *testing.B) {
	const l = 72
	for _, sel := range []Selection{SelectDP, SelectGreedy, SelectOverlapping} {
		for _, L := range []int{1024, 4032, 8760} {
			for _, k := range []int{3, 5, 10} {
				n := L - 2*l + 1
				d := randomProfile(17, n)
				b.Run(fmt.Sprintf("%s/L%d/k%d", sel, L, k), func(b *testing.B) {
					var sc selectScratch
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, ok := selectAnchors(d, k, l, sel, &sc); !ok {
							b.Fatal("selection infeasible")
						}
					}
				})
			}
		}
	}
}

// profileWindowBench advances a window over `width` streams to its full
// length L, then measures one consult of steady-state work: `every` ticks of
// Advance followed by one ProfileWindow per target. With shared reference sets every target consults the same
// streams, so only the first assembly pays the catch-up; with disjoint sets
// each target catches up its own references. Consulting every tick keeps
// catch-up at one replayed slide; every 8 ticks replays 8 deferred slides
// per stream; every 128 ticks (> l) makes each catch-up a full rebuild.
func profileWindowBench(b *testing.B, L, targets, d, every int, shared bool) {
	const l = 72
	width := targets * d
	if shared {
		width = d
	}
	names := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprint(i)
	}
	w := servedWindow(L, l, names...)
	p := NewIncrementalProfiler(l, w)
	data := randomRefs(23, width, 2*L)
	w.AdvanceColumns(data, 0, L)
	refSets := make([][]int, targets)
	for t := range refSets {
		refs := make([]int, d)
		for x := range refs {
			if shared {
				refs[x] = x
			} else {
				refs[x] = t*d + x
			}
		}
		refSets[t] = refs
	}
	for _, refs := range refSets {
		p.ProfileWindow(refs, nil)
	}
	dst := make([]float64, L-2*l+1)
	pos := L
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < every; u++ {
			n := pos % len(data[0])
			w.AdvanceColumns(data, n, n+1)
			pos++
		}
		for _, refs := range refSets {
			p.ProfileWindow(refs, dst)
		}
	}
}

// BenchmarkProfileWindow measures profile catch-up and assembly for 8
// targets × 3 references. At L = 8760 it contrasts targets sharing one
// reference set with targets on disjoint references, consulted every tick.
// At the served L = 4032 the disjoint references are consulted every 8
// ticks (a fused replay of 8 deferred slides each) and every 128 ticks
// (each catch-up a full rebuild of a cold reference).
func BenchmarkProfileWindow(b *testing.B) {
	b.Run("shared", func(b *testing.B) { profileWindowBench(b, 8760, 8, 3, 1, true) })
	b.Run("disjoint", func(b *testing.B) { profileWindowBench(b, 8760, 8, 3, 1, false) })
	b.Run("deferred8/L4032", func(b *testing.B) { profileWindowBench(b, 4032, 8, 3, 8, false) })
	b.Run("cold/L4032", func(b *testing.B) { profileWindowBench(b, 4032, 8, 3, 128, false) })
}
