// Package shard partitions the online index horizontally: a Set is N
// hash-partitioned internal/index.Index shards behind the same API as a
// single index. Entities are routed to shards by a mixed hash of their
// ID, mutations lock only the owning shard, and queries fan out to all
// shards in parallel and merge — per-shard RWMutexes instead of one
// global one, so writers stop serializing against the whole dataset.
//
// Partitioning by entity keeps every query exact: each shard holds the
// complete multisets of its entities, so the measure-derived pruning
// bounds apply per shard exactly as they do globally, and the union of
// per-shard threshold results (or the heap merge of per-shard top-k
// lists, via index.MergeTopK) equals the single-index answer. The
// element dictionary is intentionally NOT per shard — callers intern
// strings once (vsmartjoin.Index holds the shared multiset.Dict) and
// shards see only dense element IDs, so a fan-out costs no translation.
//
// The fan-out runs on an errgroup-style worker pool bounded by
// GOMAXPROCS: shards are claimed off an atomic counter by at most that
// many goroutines, so a 64-shard set on a 8-core box runs 8 wide
// instead of spawning 64 goroutines per query.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"vsmartjoin/internal/index"
	"vsmartjoin/internal/metrics"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/planner"
	"vsmartjoin/internal/similarity"
)

// Set is a fixed-width collection of hash-partitioned index shards. The
// zero value is not usable; construct with New. Methods mirror
// index.Index so the two are interchangeable behind vsmartjoin.Index.
type Set struct {
	shards []*index.Index
	// queries counts fan-outs at the set level: each logical query probes
	// every shard, so summing the per-shard counters would overcount by
	// the shard width.
	queries atomic.Int64
	// scratch pools fan-out merge state (*fanScratch): per-shard result
	// buffers reused across queries so the steady-state fan-out stops
	// allocating a fresh [][]Match per call.
	scratch sync.Pool

	// merge times the cross-shard merge step of a multi-shard fan-out —
	// the concat+sort (threshold) or heap fold (top-k) that happens after
	// every shard has answered, with no shard lock held. The single-shard
	// fast path delegates straight to the shard and is not timed here.
	merge metrics.Histogram
}

// MergeSnapshot captures the fan-out merge-time distribution.
func (s *Set) MergeSnapshot() metrics.Snapshot { return s.merge.Snapshot() }

// fanScratch is the reusable per-fan-out state: one result buffer per
// shard, each handed to that shard's Into query and merged afterwards.
// Slots are written only by the worker that claimed the shard, so the
// buffers need no locking within one fan-out. kper is the Neighbor-
// typed twin for kNN fan-outs, sized lazily on the first one.
type fanScratch struct {
	per  [][]index.Match
	kper [][]index.Neighbor
}

func (s *Set) getFan() *fanScratch {
	f, _ := s.scratch.Get().(*fanScratch)
	if f == nil {
		f = &fanScratch{per: make([][]index.Match, len(s.shards))}
	}
	return f
}

func (s *Set) putFan(f *fanScratch) {
	for i := range f.per {
		f.per[i] = f.per[i][:0]
	}
	for i := range f.kper {
		f.kper[i] = f.kper[i][:0]
	}
	s.scratch.Put(f)
}

// New returns an empty set of n shards (n < 1 is treated as 1)
// verifying with the given measure.
func New(m similarity.Measure, n int) *Set {
	if n < 1 {
		n = 1
	}
	s := &Set{shards: make([]*index.Index, n)}
	for i := range s.shards {
		s.shards[i] = index.New(m)
	}
	return s
}

// Shards reports the shard width.
func (s *Set) Shards() int { return len(s.shards) }

// Measure reports the measure the shards verify with.
func (s *Set) Measure() similarity.Measure { return s.shards[0].Measure() }

// shardHash mixes an entity ID (splitmix64 finalizer) so that
// sequentially assigned IDs — the common case, vsmartjoin.Index hands
// them out from a counter — spread evenly instead of striping.
func shardHash(id multiset.ID) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf is the one routing function: the shard index owning entity id
// in an n-shard set. The bulk index builder (internal/build) partitions
// with it so batch-written shard files match the shard a live Set would
// route every entity to; the per-shard durability layout depends on the
// two never disagreeing.
// A width below 2 routes everything to shard 0, matching New's "n < 1
// is treated as 1": without the guard a zero width panics on the mod
// (integer divide by zero) and a negative width wraps through uint64(n)
// to an arbitrary huge modulus.
func ShardOf(id multiset.ID, n int) int {
	if n < 2 {
		return 0
	}
	return int(shardHash(id) % uint64(n))
}

func (s *Set) shardOf(id multiset.ID) *index.Index {
	return s.shards[ShardOf(id, len(s.shards))]
}

// At returns shard i, for callers that manage per-shard concerns the
// set does not own — per-shard write-ahead logs, snapshot iteration,
// and bulk loading (vsmartjoin.Index, internal/build).
func (s *Set) At(i int) *index.Index { return s.shards[i] }

// Add upserts an entity into its owning shard. Ownership follows the
// ID, so an upsert always lands on the shard holding the old version.
func (s *Set) Add(m multiset.Multiset) { s.shardOf(m.ID).Add(m) }

// Remove deletes the entity with the given ID, reporting whether it was
// present.
func (s *Set) Remove(id multiset.ID) bool { return s.shardOf(id).Remove(id) }

// ApplyBatch applies an ordered mutation batch: ops are grouped by
// owning shard (relative order within a shard preserved — and two ops
// on the same entity always share a shard, since routing is a function
// of the ID) and each group lands in one write-lock acquisition on its
// shard via index.ApplyBatch. Equivalent to the op-at-a-time sequence
// but a hot-key storm stops convoying on the shard lock.
func (s *Set) ApplyBatch(ops []index.BatchOp) {
	if len(ops) == 0 {
		return
	}
	if len(s.shards) == 1 {
		s.shards[0].ApplyBatch(ops)
		return
	}
	per := make([][]index.BatchOp, len(s.shards))
	for _, op := range ops {
		id := op.ID
		if !op.Remove {
			id = op.Set.ID
		}
		si := ShardOf(id, len(s.shards))
		per[si] = append(per[si], op)
	}
	for si, group := range per {
		if len(group) > 0 {
			s.shards[si].ApplyBatch(group)
		}
	}
}

// Snapshot returns a copy of the entity's current multiset, or an empty
// multiset if the ID is not indexed anywhere.
func (s *Set) Snapshot(id multiset.ID) multiset.Multiset { return s.shardOf(id).Snapshot(id) }

// Len reports the number of live entities across all shards.
func (s *Set) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Range calls fn for every live entity across all shards in ascending
// ID order, stopping early if fn returns false. Like index.Range, the
// multisets are immutable entries the callback must not mutate, and the
// iteration is a point-in-time capture, not a frozen global view under
// concurrent mutation — callers wanting an atomic snapshot (the WAL
// snapshot writer) hold their own write-side lock.
func (s *Set) Range(fn func(m multiset.Multiset) bool) {
	if len(s.shards) == 1 {
		s.shards[0].Range(fn)
		return
	}
	// Each shard ranges in ascending ID order and IDs are unique across
	// shards (routing is a function of the ID), so a k-way head merge
	// restores the global order.
	per := make([][]multiset.Multiset, len(s.shards))
	for i, sh := range s.shards {
		sh.Range(func(m multiset.Multiset) bool {
			per[i] = append(per[i], m)
			return true
		})
	}
	heads := make([]int, len(per))
	for {
		best := -1
		for i := range per {
			if heads[i] >= len(per[i]) {
				continue
			}
			if best < 0 || per[i][heads[i]].ID < per[best][heads[best]].ID {
				best = i
			}
		}
		if best < 0 {
			return
		}
		if !fn(per[best][heads[best]]) {
			return
		}
		heads[best]++
	}
}

// fanOut runs fn(i) for every shard index i on a bounded worker pool
// and waits for all of them — the errgroup pattern minus the error,
// since shard queries cannot fail.
func (s *Set) fanOut(fn func(i int)) {
	n := len(s.shards)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// QueryThreshold fans the query out to every shard in parallel and
// merges the per-shard results under the canonical ordering. The answer
// is exactly the single-index answer: shards partition the entities, so
// the per-shard result sets are disjoint and their union is complete.
func (s *Set) QueryThreshold(q index.Query, t float64) []index.Match {
	return s.QueryThresholdInto(q, t, nil)
}

// QueryThresholdInto is QueryThreshold appending into buf instead of
// allocating the result. Per-shard results land in pooled merge buffers
// and each shard query itself runs through index.QueryThresholdInto, so
// a steady-state fan-out's only allocations are the worker goroutines.
func (s *Set) QueryThresholdInto(q index.Query, t float64, buf []index.Match) []index.Match {
	s.queries.Add(1)
	if len(s.shards) == 1 {
		return s.shards[0].QueryThresholdInto(q, t, buf)
	}
	f := s.getFan()
	s.fanOut(func(i int) { f.per[i] = s.shards[i].QueryThresholdInto(q, t, f.per[i][:0]) })
	start := metrics.Now()
	base := len(buf)
	for _, ms := range f.per {
		buf = append(buf, ms...)
	}
	s.putFan(f)
	index.SortMatches(buf[base:])
	s.merge.ObserveSince(start)
	return buf
}

// QueryTopK fans out and merges per-shard top-k lists into the global
// top-k with index.MergeTopK. Per-shard queries prune against their own
// local floor (weaker than the global one), so a sharded top-k verifies
// somewhat more candidates than a single index — the price of running
// the probe in parallel — but returns the identical result.
func (s *Set) QueryTopK(q index.Query, k int) []index.Match {
	return s.QueryTopKInto(q, k, nil)
}

// QueryTopKInto is QueryTopK appending into buf instead of allocating
// the result, with pooled per-shard merge buffers like
// QueryThresholdInto.
func (s *Set) QueryTopKInto(q index.Query, k int, buf []index.Match) []index.Match {
	s.queries.Add(1)
	if len(s.shards) == 1 {
		return s.shards[0].QueryTopKInto(q, k, buf)
	}
	f := s.getFan()
	s.fanOut(func(i int) { f.per[i] = s.shards[i].QueryTopKInto(q, k, f.per[i][:0]) })
	start := metrics.Now()
	buf = index.MergeTopKInto(k, buf, f.per...)
	s.putFan(f)
	s.merge.ObserveSince(start)
	return buf
}

// QueryKNN fans out and merges per-shard kNN lists into the global k
// nearest with index.MergeKNN — exact for the same partitioning reason
// as QueryTopK, of which it is the distance-ordered mirror.
func (s *Set) QueryKNN(q index.Query, k int) []index.Neighbor {
	return s.QueryKNNInto(q, k, nil)
}

// QueryKNNInto is QueryKNN appending into buf instead of allocating
// the result, with pooled per-shard merge buffers like the other Into
// fan-outs.
func (s *Set) QueryKNNInto(q index.Query, k int, buf []index.Neighbor) []index.Neighbor {
	s.queries.Add(1)
	if len(s.shards) == 1 {
		return s.shards[0].QueryKNNInto(q, k, buf)
	}
	f := s.getFan()
	if f.kper == nil {
		f.kper = make([][]index.Neighbor, len(s.shards))
	}
	s.fanOut(func(i int) { f.kper[i] = s.shards[i].QueryKNNInto(q, k, f.kper[i][:0]) })
	start := metrics.Now()
	buf = index.MergeKNNInto(k, buf, f.kper...)
	s.putFan(f)
	s.merge.ObserveSince(start)
	return buf
}

// SetPlanner does nothing: every shard runs the prefix-filter index,
// so there is no plan to choose. It stays only until the benchmark of
// record (perfbench) drops its SetPlanner(planner.Heuristic{}) call;
// delete it and package planner together with that call.
func (s *Set) SetPlanner(planner.Heuristic) {}

// Stats sums the per-shard counters. Queries is counted at the set
// level (one per logical fan-out); everything else — sizes, probes,
// candidates, verifications — is genuine total work across shards, so
// the pruning funnel stays comparable with a single index.
func (s *Set) Stats() index.Stats {
	var out index.Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Entities += st.Entities
		out.Elements += st.Elements
		out.Postings += st.Postings
		out.Adds += st.Adds
		out.Removes += st.Removes
		out.Compactions += st.Compactions
		out.Probes += st.Probes
		out.Candidates += st.Candidates
		out.LengthPruned += st.LengthPruned
		out.Verified += st.Verified
		out.Results += st.Results
	}
	out.Queries = s.queries.Load()
	return out
}
