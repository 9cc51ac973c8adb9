package core

import (
	"fmt"
	"testing"
)

// BenchmarkSelectAnchors isolates the anchor-selection phase (the ~8%
// companion of pattern extraction, Sec. 7.4) across strategies, anchor
// counts and window lengths. All strategies run through the shared
// selection scratch, so the numbers measure the algorithms, not the
// allocator.
func BenchmarkSelectAnchors(b *testing.B) {
	const l = 72
	for _, sel := range []Selection{SelectDP, SelectGreedy, SelectOverlapping} {
		for _, L := range []int{1024, 8760} {
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

// profileWindowBench advances an incremental profiler over `width` streams
// to a full window, then measures one tick of steady-state work: one
// Advance per stream followed by one ProfileWindow per target. With shared
// reference sets every target consults the same streams, so the per-tick
// contribution cache collapses the assembly to cached-vector sums; with
// disjoint sets each target pays its own catch-up and cache fill.
func profileWindowBench(b *testing.B, targets, d int, shared bool) {
	const (
		L = 8760
		l = 72
	)
	width := targets * d
	if shared {
		width = d
	}
	p := NewIncrementalProfiler(l, width, L)
	data := randomRefs(23, width, 2*L)
	for i := 0; i < width; i++ {
		p.AdvanceBulk(i, data[i][:L])
	}
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
	dst := make([]float64, L-2*l+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := L + i%L
		for s := 0; s < width; s++ {
			p.AdvanceBulk(s, data[s][n:n+1])
		}
		for _, refs := range refSets {
			p.ProfileWindow(refs, dst)
		}
	}
}

// BenchmarkProfileWindow contrasts profile assembly for 8 targets × 3
// references when the targets share one reference set vs when every target
// has its own disjoint references (L = 8760, l = 72).
func BenchmarkProfileWindow(b *testing.B) {
	b.Run("shared", func(b *testing.B) { profileWindowBench(b, 8, 3, true) })
	b.Run("disjoint", func(b *testing.B) { profileWindowBench(b, 8, 3, false) })
}
