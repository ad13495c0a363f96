package vsmartjoin

// Online k-nearest-neighbor queries: the distance-ordered counterpart
// of QueryTopK under d = 1 − similarity. The inner index only surfaces
// entities sharing at least one element with the query (overlap ⇒
// sim > 0 ⇒ d < 1 strictly); when fewer than k overlap, the public
// layer pads the list to k with non-overlapping entities, all at
// distance exactly 1, in ascending name order — the two populations
// never interleave in the canonical (distance, name) order, so the pad
// is a pure suffix. Batch AllKNN (allknn.go) answers the same question
// for every entity at once through the MapReduce pipeline; the two are
// gated against each other in the differential suite.

import (
	"fmt"
	"sort"

	"vsmartjoin/internal/index"
)

// Neighbor is one kNN query result: an indexed entity at distance
// 1 − similarity from the query. Results are always ordered
// canonically: distance ascending, entity name ascending on ties —
// name-based tie-breaking for the same reproducibility reason as
// Match: every deployment shape answers byte-identically.
type Neighbor struct {
	Entity   string  `json:"entity"`
	Distance float64 `json:"distance"`
}

// worsePublicNeighbor is the canonical public kNN comparator: a ranks
// below b on greater distance, or on greater entity name at equal
// distances. Entity names are unique, so this is a total order.
func worsePublicNeighbor(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.Entity > b.Entity
}

// SortNeighborsByName orders neighbors nearest first under the
// canonical public ordering (distance ascending, entity name ascending
// on ties). Index queries return already-sorted results; the function
// is exported for callers merging neighbor lists from several sources —
// the cluster router's scatter-gather kNN merge is built on it.
func SortNeighborsByName(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool { return worsePublicNeighbor(ns[j], ns[i]) })
}

// QueryKNN returns the k nearest indexed entities to the query
// multiset under distance 1 − similarity, nearest first (entity name
// ascending on ties). The list is shorter than k only when fewer than
// k entities are indexed.
func (ix *Index) QueryKNN(counts map[string]uint32, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	var ks *keyScratch
	var gen uint64
	if ix.cache != nil {
		ks = getKeyScratch()
		ks.knnKey(ix.measure.Name(), counts, k)
		gen = ix.gen.Load() // before the query, like QueryThreshold
		if res, ok := ix.cache.getKNN(ks.b, gen); ok {
			putKeyScratch(ks)
			return res
		}
	}
	out := ix.knnQuery(ix.buildQuery(counts), k, "")
	if ix.cache != nil {
		ix.cache.putKNN(ks.b, gen, out)
		putKeyScratch(ks)
	}
	return out
}

// QueryKNNEntity runs QueryKNN with an indexed entity as the query;
// the entity itself is excluded from its own neighbor list.
func (ix *Index) QueryKNNEntity(entity string, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	var ks *keyScratch
	var gen uint64
	if ix.cache != nil {
		ks = getKeyScratch()
		ks.knnEntityKey(ix.measure.Name(), entity, k)
		gen = ix.gen.Load() // before the lookup AND the query
		if res, ok := ix.cache.getKNN(ks.b, gen); ok {
			putKeyScratch(ks)
			return res, nil
		}
	}
	ix.mu.RLock()
	id, ok := ix.byName[entity]
	ix.mu.RUnlock()
	if !ok {
		if ix.cache != nil {
			putKeyScratch(ks)
		}
		return nil, fmt.Errorf("vsmartjoin: entity %q not indexed", entity)
	}
	out := ix.knnQuery(ix.queryByID(id), k, entity)
	if ix.cache != nil {
		ix.cache.putKNN(ks.b, gen, out)
		putKeyScratch(ks)
	}
	return out, nil
}

// knnQuery is the shared kNN read path: the inner fan-out (whose
// rising k-th-distance floor is QueryTopK's rising similarity floor,
// since d = 1 − sim is order-reversing), boundary-tie canonicalization,
// name resolution, and the non-overlap pad. self names the query's own
// entity when it is indexed, so the pad never returns it.
func (ix *Index) knnQuery(q index.Query, k int, self string) []Neighbor {
	bp := matchBufPool.Get().(*queryBuf)
	start, timed := bp.sample()
	// Probe for k+1: the extra neighbor is a tie detector, exactly as in
	// QueryTopK. If the k-th and (k+1)-th distances differ (or fewer than
	// k+1 overlap), no tied entity was evicted at the boundary and the
	// inner selection is already canonical.
	ns := ix.inner.QueryKNNInto(q, k+1, bp.ns[:0])
	if len(ns) == k+1 && ns[k-1].Dist == ns[k].Dist {
		// Ties straddle the boundary and the inner index broke them by
		// entity ID; refetch everything at or nearer the boundary distance
		// and let the canonical sort pick by name. The re-query runs in
		// similarity space — dist ≤ boundary ⟺ sim ≥ 1 − boundary — and
		// the threshold path's inclusion tolerance absorbs the float
		// round-trip of converting the boundary back.
		boundary := ns[k-1].Dist
		ms := ix.inner.QueryThresholdInto(q, 1-boundary, bp.ms[:0])
		ns = ns[:0]
		for _, m := range ms {
			ns = append(ns, index.Neighbor{ID: m.ID, Dist: 1 - m.Sim})
		}
		bp.ms = ms
	}
	out := ix.resolveKNN(ns)
	bp.ns = ns
	matchBufPool.Put(bp)
	if timed {
		ix.queryLatency.ObserveSince(start)
	}
	if len(out) > k {
		out = out[:k]
	}
	if len(out) < k {
		// Fewer than k entities overlap the query, so out already holds
		// every overlapping one; fill with non-overlapping entities, all
		// tied at distance exactly 1, in their canonical (name) order.
		out = ix.padKNN(out, k, self)
	}
	return out
}

// resolveKNN translates ID neighbors back to entity names and re-sorts
// them under the canonical public ordering (distance ascending, name
// ascending on ties) — the inner index breaks ties by entity ID, which
// is meaningless outside one process. Neighbors whose entity was
// removed between the query and the lookup are dropped.
func (ix *Index) resolveKNN(ns []index.Neighbor) []Neighbor {
	out := make([]Neighbor, 0, len(ns))
	ix.mu.RLock()
	for _, n := range ns {
		if name, ok := ix.names[n.ID]; ok {
			out = append(out, Neighbor{Entity: name, Distance: n.Dist})
		}
	}
	ix.mu.RUnlock()
	SortNeighborsByName(out)
	return out
}

// padKNN appends the first k−len(out) indexed entities not already in
// out (and not the query's own entity) in ascending name order, each at
// distance 1. Runs only when the overlap population is exhausted, so
// the sort cost sits on an inherently small-result path.
func (ix *Index) padKNN(out []Neighbor, k int, self string) []Neighbor {
	need := k - len(out)
	seen := make(map[string]bool, len(out)+1)
	for _, n := range out {
		seen[n.Entity] = true
	}
	if self != "" {
		seen[self] = true
	}
	ix.mu.RLock()
	names := make([]string, 0, len(ix.byName))
	for name := range ix.byName {
		if !seen[name] {
			names = append(names, name)
		}
	}
	ix.mu.RUnlock()
	sort.Strings(names)
	if len(names) > need {
		names = names[:need]
	}
	for _, name := range names {
		out = append(out, Neighbor{Entity: name, Distance: 1})
	}
	//lint:vsmart-allow canonicalorder the pad is a pure suffix: every prior entry overlaps the query (dist < 1 strictly), the appended names are all at dist exactly 1 in ascending name order
	return out
}
