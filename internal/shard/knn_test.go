package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"vsmartjoin/internal/index"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

func sameNeighbors(t *testing.T, tag string, got, want []index.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, single index %d\ngot  %v\nwant %v", tag, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: neighbor %d: got %v want %v", tag, i, got[i], want[i])
		}
	}
}

// TestKNNDifferentialVsSingleIndex is the sharded kNN exactness gate:
// for shard counts {1, 3, 8}, QueryKNN must return exactly the
// single-index answer — same IDs, same distances, same order —
// including after churn.
func TestKNNDifferentialVsSingleIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, measureName := range []string{"ruzicka", "jaccard", "cosine"} {
		m, err := similarity.ByName(measureName)
		if err != nil {
			t.Fatal(err)
		}
		sets := randomSets(rng, 60, 32, 9, 4)
		// Duplicates create distance-0 ID tie groups crossing shard
		// boundaries (IDs route to different shards).
		sets = append(sets,
			multiset.Multiset{ID: 200, Entries: sets[0].Entries},
			multiset.Multiset{ID: 201, Entries: sets[0].Entries},
		)
		single := index.New(m)
		for _, s := range sets {
			single.Add(s)
		}
		for _, n := range []int{1, 3, 8} {
			set := New(m, n)
			for _, s := range sets {
				set.Add(s)
			}
			for _, k := range []int{1, 5, 50} {
				for _, q := range sets[:20] {
					tag := fmt.Sprintf("%s shards=%d k=%d q=%d", measureName, n, k, q.ID)
					sameNeighbors(t, tag, set.QueryKNN(index.QueryOf(q), k), single.QueryKNN(index.QueryOf(q), k))
				}
			}
			// Churn a slice of entities, then re-compare: removals must
			// vanish from lists on both sides identically.
			for _, s := range sets[10:20] {
				set.Remove(s.ID)
				single.Remove(s.ID)
			}
			for _, q := range sets[:5] {
				tag := fmt.Sprintf("%s shards=%d churn q=%d", measureName, n, q.ID)
				sameNeighbors(t, tag, set.QueryKNN(index.QueryOf(q), 5), single.QueryKNN(index.QueryOf(q), 5))
			}
			// Restore for the next shard count.
			for _, s := range sets[10:20] {
				set.Add(s)
				single.Add(s)
			}
		}
	}
}

// TestKNNIntoBufferContract pins the fan-out Into form: existing buffer
// contents survive and the appended region equals the allocating form.
func TestKNNIntoBufferContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := similarity.ByName("jaccard")
	if err != nil {
		t.Fatal(err)
	}
	sets := randomSets(rng, 30, 16, 6, 3)
	set := New(m, 4)
	for _, s := range sets {
		set.Add(s)
	}
	sentinel := index.Neighbor{ID: 999, Dist: -1}
	buf := append(make([]index.Neighbor, 0, 8), sentinel)
	out := set.QueryKNNInto(index.QueryOf(sets[3]), 5, buf)
	if out[0] != sentinel {
		t.Fatalf("buffer contents clobbered: %v", out)
	}
	sameNeighbors(t, "into", out[1:], set.QueryKNN(index.QueryOf(sets[3]), 5))
}
