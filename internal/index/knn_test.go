package index

import (
	"math/rand"
	"sort"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/ppjoin"
	"vsmartjoin/internal/similarity"
)

// oracleKNN is the inner-layer oracle: ppjoin's sort-everything kernel
// restricted to overlapping entities — the internal contract surfaces
// only entities sharing an element with the query (dist < 1 strictly).
func oracleKNN(sets []multiset.Multiset, q multiset.Multiset, k int, m similarity.Measure) []Neighbor {
	var out []Neighbor
	for _, n := range ppjoin.KNNAgainst(q, sets, m, len(sets)) {
		if n.Dist < 1 {
			out = append(out, Neighbor{ID: n.ID, Dist: n.Dist})
		}
	}
	sort.Slice(out, func(i, j int) bool { return worseNeighbor(out[j], out[i]) })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
		if d := a[i].Dist - b[i].Dist; d < -1e-9 || d > 1e-9 {
			return false
		}
	}
	return true
}

// TestQueryKNNMatchesOracle gates the kNN pass against the quadratic
// oracle, including duplicate multisets (maximal ID tie groups) and
// self-queries of every indexed entity.
func TestQueryKNNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sets := randomMultisets(rng, 40, 30, 8, 4)
	// Duplicates of set 0 put an ID tie group at distance 0.
	sets = append(sets,
		multiset.Multiset{ID: 100, Entries: sets[0].Entries},
		multiset.Multiset{ID: 101, Entries: sets[0].Entries},
	)
	for _, m := range similarity.All() {
		ix := buildIndex(m, sets)
		for _, k := range []int{1, 5, 50} {
			for _, q := range sets {
				// The oracle excludes q's own ID like KNNAgainst does; the
				// index has no such notion, so query a fresh ID.
				probe := multiset.Multiset{ID: 9999, Entries: q.Entries}
				got := ix.QueryKNN(QueryOf(probe), k)
				want := oracleKNN(sets, probe, k, m)
				if !neighborsEqual(got, want) {
					t.Fatalf("%s k=%d q=%d:\n got %v\nwant %v",
						m.Name(), k, q.ID, got, want)
				}
			}
		}
	}
}

// TestQueryKNNIntoReusesBuffer pins the Into contract: results append
// into the provided buffer, preserving its existing contents.
func TestQueryKNNIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := randomMultisets(rng, 20, 15, 6, 3)
	m := similarity.All()[0]
	ix := buildIndex(m, sets)
	sentinel := Neighbor{ID: 777, Dist: -1}
	buf := append(make([]Neighbor, 0, 16), sentinel)
	out := ix.QueryKNNInto(QueryOf(sets[2]), 5, buf)
	if len(out) < 2 || out[0] != sentinel {
		t.Fatalf("existing buffer contents clobbered: %v", out)
	}
	fresh := ix.QueryKNN(QueryOf(sets[2]), 5)
	if !neighborsEqual(out[1:], fresh) {
		t.Fatalf("Into appended %v, QueryKNN returned %v", out[1:], fresh)
	}
	if got := ix.QueryKNNInto(QueryOf(sets[2]), 0, buf[:1]); len(got) != 1 {
		t.Fatalf("k=0 appended results: %v", got)
	}
}

// TestMergeKNN gates the fan-out merge: per-partition k-lists fold into
// the global k nearest with ties surviving by smallest ID, and
// MergeKNNInto only sorts the appended region.
func TestMergeKNN(t *testing.T) {
	a := []Neighbor{{ID: 1, Dist: 0.1}, {ID: 5, Dist: 0.5}, {ID: 9, Dist: 0.9}}
	b := []Neighbor{{ID: 2, Dist: 0.1}, {ID: 4, Dist: 0.5}, {ID: 6, Dist: 0.6}}
	got := MergeKNN(4, a, b)
	want := []Neighbor{{ID: 1, Dist: 0.1}, {ID: 2, Dist: 0.1}, {ID: 4, Dist: 0.5}, {ID: 5, Dist: 0.5}}
	if !neighborsEqual(got, want) {
		t.Fatalf("MergeKNN = %v, want %v", got, want)
	}
	if got := MergeKNN(0, a, b); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := MergeKNN(10, a); !neighborsEqual(got, a) {
		t.Fatalf("single short list changed: %v", got)
	}
	prefix := []Neighbor{{ID: 42, Dist: 0.9}}
	out := MergeKNNInto(2, prefix, b, a)
	if out[0] != prefix[0] {
		t.Fatalf("MergeKNNInto clobbered the existing buffer: %v", out)
	}
	if !neighborsEqual(out[1:], want[:2]) {
		t.Fatalf("MergeKNNInto appended %v, want %v", out[1:], want[:2])
	}
}

// TestMergeKNNMatchesGlobalSort cross-checks the bounded heap against a
// concatenate-sort-truncate reference on random per-partition lists.
func TestMergeKNNMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		var lists [][]Neighbor
		var all []Neighbor
		for p := 0; p < 1+rng.Intn(4); p++ {
			var list []Neighbor
			for i := 0; i < rng.Intn(2*k); i++ {
				n := Neighbor{
					ID:   multiset.ID(rng.Intn(20) + 1),
					Dist: float64(rng.Intn(5)) / 5, // coarse grid forces ties
				}
				list = append(list, n)
				all = append(all, n)
			}
			SortNeighbors(list)
			if len(list) > k {
				list = list[:k]
			}
			lists = append(lists, list)
		}
		SortNeighbors(all)
		want := all
		if len(want) > k {
			want = want[:k]
		}
		if got := MergeKNN(k, lists...); !neighborsEqual(got, want) {
			t.Fatalf("trial %d k=%d: MergeKNN %v, reference %v\nlists: %v", trial, k, got, want, lists)
		}
	}
}
