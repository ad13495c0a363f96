package index

import (
	"slices"
	"sync"

	"vsmartjoin/internal/multiset"
)

// This file is the online kNN surface: k-nearest-neighbor queries over
// the live index under the distance d = 1 − Sim. The key observation is
// that kNN over this distance IS top-k over the similarity — d is a
// strictly decreasing function of Sim, so "distance ascending, ID
// ascending" and "similarity descending, ID ascending" are the same
// total order, and the rising k-th-distance floor the literature prunes
// with (floor_d) is exactly the rising k-th-best similarity floor the
// top-k pass already maintains: floor_d = 1 − floor_sim. QueryKNNInto
// therefore runs the prefix-filter top-k pass and converts, inheriting
// every pruning bound, the pooled scratch, and the zero-allocation
// property.
//
// Scope: like the threshold queries, the internal layer only surfaces
// entities sharing at least one element with the query. Overlap means
// Sim > 0 means d < 1 strictly; a disjoint entity sits at d = 1
// exactly, so the two populations never interleave in the canonical
// order. The public layer (vsmartjoin.Index) pads short lists to k
// with disjoint entities in ascending name order — a pure suffix.

// Neighbor is one kNN result: an indexed entity at distance 1 − Sim
// from the query. Canonical order is distance ascending, ID ascending
// on ties.
type Neighbor struct {
	ID   multiset.ID
	Dist float64
}

// worseNeighbor is the single kNN ordering comparator: a ranks below b
// on greater distance, or on greater ID at equal distances. It is the
// mirror of worseMatch under d = 1 − Sim.
func worseNeighbor(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// SortNeighbors orders a kNN list nearest first under worseNeighbor —
// the one canonical neighbor ordering; the fan-out merge and the tests
// all defer to it.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case worseNeighbor(b, a):
			return -1
		case worseNeighbor(a, b):
			return 1
		default:
			return 0
		}
	})
}

// QueryKNN returns the k nearest indexed entities sharing at least one
// element with q, nearest first (ID ascending on ties). The list is
// shorter than k when fewer than k entities overlap the query.
func (ix *Index) QueryKNN(q Query, k int) []Neighbor {
	return ix.QueryKNNInto(q, k, nil)
}

// QueryKNNInto is QueryKNN appending into buf (typically a reused
// buffer truncated to buf[:0]) instead of allocating the result — the
// allocation-free form the sharded fan-out uses. The pass is the
// top-k pass: the current k-th-best similarity floor is the
// k-th-distance floor (floor_d = 1 − floor_sim), rising as nearer
// neighbors are verified.
func (ix *Index) QueryKNNInto(q Query, k int, buf []Neighbor) []Neighbor {
	if k <= 0 {
		return buf
	}
	hp := mergeHeapPool.Get().(*topkHeap)
	ms := ix.QueryTopKInto(q, k, (*hp)[:0])
	base := len(buf)
	for _, m := range ms {
		buf = append(buf, Neighbor{ID: m.ID, Dist: 1 - m.Sim})
	}
	*hp = ms[:0]
	mergeHeapPool.Put(hp)
	// 1 − sim is order-reversing but not injective in floating point:
	// adjacent sims can round to the same distance, creating distance
	// ties that did not exist in similarity space. Re-sorting in distance
	// space re-breaks those collapsed ties by ID, which is the order the
	// contract promises (SortFunc allocates nothing, so the hot path
	// stays 0 allocs/op).
	SortNeighbors(buf[base:])
	return buf
}

// MergeKNN folds per-partition kNN lists into the global k nearest,
// nearest first — the merge step of a sharded QueryKNN fan-out. Exact
// for the same reason MergeTopK is: an entity among the global k
// nearest is necessarily among its own partition's k nearest.
func MergeKNN(k int, lists ...[]Neighbor) []Neighbor {
	if k <= 0 {
		return nil
	}
	return MergeKNNInto(k, nil, lists...)
}

// knnHeapPool recycles the bounded heaps MergeKNNInto folds with,
// mirroring mergeHeapPool on the Match side.
var knnHeapPool = sync.Pool{New: func() any { return new(knnHeap) }}

// MergeKNNInto is MergeKNN appending into buf (typically a reused
// buffer truncated to buf[:0]) instead of allocating the result. Only
// the appended region is sorted; buf's existing contents are preserved.
func MergeKNNInto(k int, buf []Neighbor, lists ...[]Neighbor) []Neighbor {
	if k <= 0 {
		return buf
	}
	hp := knnHeapPool.Get().(*knnHeap)
	h := (*hp)[:0]
	for _, list := range lists {
		for _, n := range list {
			h.offer(n, k)
		}
	}
	base := len(buf)
	buf = append(buf, h...)
	*hp = h
	knnHeapPool.Put(hp)
	SortNeighbors(buf[base:])
	return buf
}

// knnHeap is a bounded heap under worseNeighbor whose root is always
// the neighbor the next nearer candidate should evict; among equal
// distances the smallest IDs survive.
type knnHeap []Neighbor

func (h knnHeap) worse(i, j int) bool { return worseNeighbor(h[i], h[j]) }

func (h *knnHeap) offer(n Neighbor, k int) {
	if len(*h) < k {
		*h = append(*h, n)
		i := len(*h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h.worse(i, parent) {
				break
			}
			(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
			i = parent
		}
		return
	}
	if !worseNeighbor((*h)[0], n) {
		return // n does not beat the current k-th nearest
	}
	(*h)[0] = n
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(*h) && h.worse(l, least) {
			least = l
		}
		if r < len(*h) && h.worse(r, least) {
			least = r
		}
		if least == i {
			return
		}
		(*h)[i], (*h)[least] = (*h)[least], (*h)[i]
		i = least
	}
}
