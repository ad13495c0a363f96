// Package index implements the online half of the system: an incremental
// inverted index over multisets that answers threshold and top-k
// similarity queries against a live, mutable dataset.
//
// Where the batch join (internal/core) recomputes every pair from scratch
// on a simulated cluster, the index serves point lookups: per-element
// posting lists map alphabet elements to the entities containing them, a
// query probes the lists of its own elements to gather candidates, and the
// measure-derived bounds of internal/similarity prune the probe in two
// ways before exact verification:
//
//   - prefix filter: posting lists are probed in decreasing-multiplicity
//     order, and probing stops once ResidualUpperBound shows the unprobed
//     tail of the query cannot reach the threshold — entities overlapping
//     the query only in that tail are provably below it;
//   - length filter: each candidate's UniStats are checked with
//     SimUpperBound before the candidate is verified.
//
// Concurrency: a single RWMutex guards the tables. Mutations (Add, Remove,
// compaction) take the write lock; queries share the read lock, so the hot
// path never serializes reads against each other. Entities are immutable
// once inserted (Add replaces the stored record wholesale), which lets
// QueryThreshold release the lock before the exact-verification loop — the
// most expensive part of a query runs with no lock held at all. Stale
// posting entries left behind by Remove or replacement are skipped by
// pointer identity and reclaimed by an amortized compaction pass.
package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// boundEps is the slack applied when comparing pruning bounds against the
// threshold; it is looser than verifyEps so filters never drop a pair that
// verification would keep.
const boundEps = 1e-9

// verifyEps matches the ppjoin.Naive oracle's inclusion tolerance.
const verifyEps = 1e-12

// entry is one indexed entity. Entries are immutable after insertion:
// Add of an existing ID swaps in a fresh entry, so a query that captured
// the old pointer can keep verifying against a consistent snapshot.
//
// slot is the entry's index into the per-query candidate mark table: a
// small dense integer assigned under the write lock when the entry is
// created and recycled when it dies (replacement or Remove). Live
// entries always hold distinct slots, and a query deduplicates
// candidates by stamping slots with its epoch instead of inserting
// pointers into a freshly allocated map. Slot recycling cannot alias
// within one query: slots only move between entries under the write
// lock, the probe loop runs entirely inside one read-lock hold, and
// dead entries (which may share a recycled slot with a live one) are
// dropped by the identity check before any stamping happens.
type entry struct {
	set  multiset.Multiset
	uni  similarity.UniStats
	slot int32
}

// Match is one query result.
type Match struct {
	ID  multiset.ID
	Sim float64
}

// Query is a query multiset. Set holds the elements drawn from the index
// alphabet; Extra accounts elements outside it, which can match no posting
// list but still weigh into the query's cardinalities (and therefore into
// every similarity denominator).
type Query struct {
	Set   multiset.Multiset
	Extra similarity.UniStats
}

// QueryOf wraps a multiset whose elements all come from the index alphabet.
func QueryOf(m multiset.Multiset) Query { return Query{Set: m} }

// Stats is a point-in-time snapshot of index size and traffic counters.
type Stats struct {
	// Entities is the number of live entities; Elements the number of
	// distinct alphabet elements with a posting list; Postings the total
	// posting entries including tombstoned ones awaiting compaction.
	Entities int
	Elements int
	Postings int

	// Adds, Removes, Compactions count mutations since creation.
	Adds        int64
	Removes     int64
	Compactions int64

	// Queries counts lookups; the remaining counters expose how far each
	// pruning stage narrowed them: Probes is posting entries scanned,
	// Candidates is distinct live candidates gathered, LengthPruned is
	// candidates dropped by SimUpperBound, Verified is exact similarity
	// computations, Results is matches returned.
	Queries      int64
	Probes       int64
	Candidates   int64
	LengthPruned int64
	Verified     int64
	Results      int64
}

// Index is an incremental inverted similarity index. The zero value is not
// usable; construct with New.
type Index struct {
	measure similarity.Measure

	mu       sync.RWMutex
	entities map[multiset.ID]*entry
	postings map[multiset.Elem][]*entry
	// postingCount tracks total posting entries; deadPostings those whose
	// entry is no longer current. Compaction triggers when dead entries
	// outnumber live ones, keeping probe work amortized-linear.
	postingCount int
	deadPostings int
	// nextSlot is the high-water mark of the dense entry-slot space (all
	// live slots are < nextSlot); freeSlots recycles the slots of dead
	// entries so the space stays as dense as the live entity count.
	nextSlot  int32
	freeSlots []int32

	// scratch pools per-query state (probe order, candidate buffer, mark
	// table, top-k heap) so the steady-state query path allocates
	// nothing. Not guarded by mu: sync.Pool is concurrency-safe, and a
	// scratch is owned by exactly one query between Get and Put.
	scratch sync.Pool

	adds        atomic.Int64
	removes     atomic.Int64
	compactions atomic.Int64
	queries     atomic.Int64
	probes      atomic.Int64
	candidates  atomic.Int64
	lenPruned   atomic.Int64
	verified    atomic.Int64
	results     atomic.Int64
}

// New returns an empty index verifying with the given measure.
func New(m similarity.Measure) *Index {
	return &Index{
		measure:  m,
		entities: make(map[multiset.ID]*entry),
		postings: make(map[multiset.Elem][]*entry),
	}
}

// Measure reports the measure the index verifies with.
func (ix *Index) Measure() similarity.Measure { return ix.measure }

// Len reports the number of live entities.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.entities)
}

// allocSlotLocked hands out a dense mark-table slot for a new live
// entry, recycling dead entries' slots first. Caller holds the write
// lock.
func (ix *Index) allocSlotLocked() int32 {
	if n := len(ix.freeSlots); n > 0 {
		s := ix.freeSlots[n-1]
		ix.freeSlots = ix.freeSlots[:n-1]
		return s
	}
	s := ix.nextSlot
	ix.nextSlot++
	return s
}

// upsertLocked makes e the current entry for its ID: it takes a mark
// slot, retires the entry it replaces (whose postings turn stale the
// moment the map points at e), and appends e to its element posting
// lists. Caller holds the write lock.
func (ix *Index) upsertLocked(e *entry) {
	e.slot = ix.allocSlotLocked()
	if old, ok := ix.entities[e.set.ID]; ok {
		ix.retireLocked(old)
	}
	ix.entities[e.set.ID] = e
	for _, ent := range e.set.Entries {
		ix.postings[ent.Elem] = append(ix.postings[ent.Elem], e)
	}
	ix.postingCount += len(e.set.Entries)
}

// removeLocked deletes the entity with the given ID, reporting whether
// it was present. Caller holds the write lock.
func (ix *Index) removeLocked(id multiset.ID) bool {
	e, ok := ix.entities[id]
	if ok {
		delete(ix.entities, id)
		ix.retireLocked(e)
	}
	return ok
}

// retireLocked accounts a dead entry: its postings count toward
// compaction and its slot returns to the free list. Caller holds the
// write lock.
func (ix *Index) retireLocked(e *entry) {
	ix.deadPostings += len(e.set.Entries)
	ix.freeSlots = append(ix.freeSlots, e.slot)
}

// Add inserts an entity, replacing any previous entity with the same ID.
// The index takes ownership of m: callers must not mutate its entries
// afterwards (the hot insert path avoids a defensive copy; Snapshot
// clones on the way out instead).
func (ix *Index) Add(m multiset.Multiset) {
	e := &entry{set: m, uni: similarity.UniOf(m)}
	ix.mu.Lock()
	ix.upsertLocked(e)
	ix.maybeCompactLocked()
	ix.mu.Unlock()
	ix.adds.Add(1)
}

// BatchOp is one mutation of an ApplyBatch: an upsert of Set when
// Remove is false, a deletion of ID when it is true.
type BatchOp struct {
	Remove bool
	ID     multiset.ID       // deletion target (Remove only)
	Set    multiset.Multiset // upsert payload (Add only); the index takes ownership
}

// ApplyBatch applies ops in order under a single write-lock
// acquisition — the batched mutation path. The end state is exactly
// that of the equivalent Add/Remove sequence, but a contended write
// storm pays the lock handoff and the compaction-trigger check once
// per batch instead of once per mutation, so readers see one short
// exclusion window instead of N.
func (ix *Index) ApplyBatch(ops []BatchOp) {
	if len(ops) == 0 {
		return
	}
	var adds, removes int64
	ix.mu.Lock()
	for _, op := range ops {
		if op.Remove {
			if ix.removeLocked(op.ID) {
				removes++
			}
			continue
		}
		ix.upsertLocked(&entry{set: op.Set, uni: similarity.UniOf(op.Set)})
		adds++
	}
	ix.maybeCompactLocked()
	ix.mu.Unlock()
	ix.adds.Add(adds)
	ix.removes.Add(removes)
}

// BulkLoad ingests entities in strictly ascending ID order into an
// empty index — the sealed fast path a bulk-built snapshot loads
// through. Unlike repeated Add it sizes the entity table once and
// skips the compaction-trigger evaluation (an empty index has nothing
// stale to compact). The resulting structures are exactly what the
// same Adds would have built (posting lists append in ID order either
// way), so queries answer identically. The index takes ownership of
// the multisets. A non-empty index or an ID-order violation is an
// error and leaves the index unchanged.
func (ix *Index) BulkLoad(sets []multiset.Multiset) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.entities) != 0 || ix.postingCount != 0 {
		return fmt.Errorf("index: bulk load into a non-empty index (%d entities)", len(ix.entities))
	}
	for i := range sets {
		if sets[i].ID == 0 {
			return fmt.Errorf("index: bulk load: entity %d has ID 0 (reserved for ad-hoc queries)", i)
		}
		if i > 0 && sets[i].ID <= sets[i-1].ID {
			return fmt.Errorf("index: bulk load: IDs not strictly ascending at %d (%d after %d)",
				i, sets[i].ID, sets[i-1].ID)
		}
	}
	ix.entities = make(map[multiset.ID]*entry, len(sets))
	for _, m := range sets {
		ix.upsertLocked(&entry{set: m, uni: similarity.UniOf(m)})
	}
	// Bulk-loaded entities are mutations like any other: a daemon
	// bootstrapped from snapshot files must report the entities it
	// serves in Stats.Adds (and /readyz's mutation counter), not 0.
	ix.adds.Add(int64(len(sets)))
	return nil
}

// Remove deletes the entity with the given ID, reporting whether it was
// present.
func (ix *Index) Remove(id multiset.ID) bool {
	ix.mu.Lock()
	ok := ix.removeLocked(id)
	if ok {
		ix.maybeCompactLocked()
	}
	ix.mu.Unlock()
	if ok {
		ix.removes.Add(1)
	}
	return ok
}

// maybeCompactLocked rewrites every posting list without stale entries
// once they outnumber live ones. Caller holds the write lock.
func (ix *Index) maybeCompactLocked() {
	if ix.deadPostings <= ix.postingCount-ix.deadPostings {
		return
	}
	for elem, list := range ix.postings {
		w := 0
		for _, e := range list {
			if ix.entities[e.set.ID] == e {
				list[w] = e
				w++
			}
		}
		if w == 0 {
			delete(ix.postings, elem)
			continue
		}
		ix.postings[elem] = list[:w]
	}
	ix.postingCount -= ix.deadPostings
	ix.deadPostings = 0
	ix.compactions.Add(1)
}

// Range calls fn for every live entity in ascending ID order, stopping
// early if fn returns false. The multisets passed are the index's own
// immutable entries — callers must not mutate them. The iteration works
// over a point-in-time capture of the entity table: fn runs with no
// lock held, so it may query or mutate the index, at the price of not
// observing entities added after Range started.
func (ix *Index) Range(fn func(m multiset.Multiset) bool) {
	ix.mu.RLock()
	snap := make([]*entry, 0, len(ix.entities))
	for _, e := range ix.entities {
		snap = append(snap, e)
	}
	ix.mu.RUnlock()
	sort.Slice(snap, func(i, j int) bool { return snap[i].set.ID < snap[j].set.ID })
	for _, e := range snap {
		if !fn(e.set) {
			return
		}
	}
}

// Snapshot returns a copy of the entity's current multiset (keeping its
// ID, so querying with it skips the self-pair), or an empty multiset if
// the ID is not indexed.
func (ix *Index) Snapshot(id multiset.ID) multiset.Multiset {
	ix.mu.RLock()
	e, ok := ix.entities[id]
	ix.mu.RUnlock()
	if !ok {
		return multiset.Multiset{ID: id}
	}
	return e.set.Clone()
}

// Stats returns a snapshot of the index counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	s := Stats{
		Entities: len(ix.entities),
		Elements: len(ix.postings),
		Postings: ix.postingCount,
	}
	ix.mu.RUnlock()
	s.Adds = ix.adds.Load()
	s.Removes = ix.removes.Load()
	s.Compactions = ix.compactions.Load()
	s.Queries = ix.queries.Load()
	s.Probes = ix.probes.Load()
	s.Candidates = ix.candidates.Load()
	s.LengthPruned = ix.lenPruned.Load()
	s.Verified = ix.verified.Load()
	s.Results = ix.results.Load()
	return s
}

// queryStats is the full unilateral view of a query: indexed elements plus
// out-of-alphabet extras.
func queryStats(q Query) similarity.UniStats {
	u := similarity.UniOf(q.Set)
	u.Add(q.Extra)
	return u
}

// queryScratch is the reusable per-query state: the sorted probe order,
// the gathered candidate buffer, the epoch-stamped dedup mark table,
// and the top-k heap. A scratch is owned by exactly one query between
// getScratch and putScratch; pooling them makes the steady-state query
// path allocation-free.
type queryScratch struct {
	order []multiset.Entry
	cands []*entry
	// marks[slot] == epoch iff the entry holding slot was already seen
	// by the current query; bumping epoch resets the whole table in O(1).
	marks []uint32
	epoch uint32
	heap  topkHeap
	// cnt accumulates the top-k funnel counters while the read lock is
	// held; they flush to the atomics afterwards. Living inside the
	// pooled scratch (rather than being locals passed by pointer into
	// topkPrefixLocked) keeps them off the heap.
	cnt struct {
		probes, cands, lenPruned, verified int64
	}
}

// begin readies the dedup table for one probe pass over an index whose
// slot high-water mark is limit. The caller must hold (at least) the
// read lock for the whole pass: slots only migrate between entries
// under the write lock, so within one pass live slots are stable.
func (s *queryScratch) begin(limit int) {
	if cap(s.marks) < limit {
		// A fresh zeroed table is correct at any epoch > 0: no slot was
		// stamped with the current epoch yet.
		s.marks = make([]uint32, limit+limit/2+16)
	}
	s.marks = s.marks[:cap(s.marks)]
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, wipe them
		clear(s.marks)
		s.epoch = 1
	}
}

func (ix *Index) getScratch() *queryScratch {
	if s, ok := ix.scratch.Get().(*queryScratch); ok {
		return s
	}
	return &queryScratch{}
}

// putScratch returns a scratch to the pool, dropping entry references
// so a pooled scratch cannot pin dead entities' multisets in memory.
func (ix *Index) putScratch(s *queryScratch) {
	clear(s.cands)
	s.cands = s.cands[:0]
	ix.scratch.Put(s)
}

// sortProbeOrder sorts query entries for probing: decreasing
// multiplicity first so the residual bound collapses as fast as
// possible, element ID second for determinism.
func sortProbeOrder(ord []multiset.Entry) {
	slices.SortFunc(ord, func(a, b multiset.Entry) int {
		if a.Count != b.Count {
			if a.Count > b.Count {
				return -1
			}
			return 1
		}
		if a.Elem != b.Elem {
			if a.Elem < b.Elem {
				return -1
			}
			return 1
		}
		return 0
	})
}

// gather collects the deduplicated live candidates (in s.cands) that
// survive the prefix and length filters, under the read lock. stop is
// the verification cut-off the bounds prune against. The query's
// posting lists are probed in decreasing-multiplicity order and probing
// ends once the residual bound shows the unprobed tail cannot reach
// stop. An entity whose ID equals the query's own ID is never a
// candidate (self-pairs are meaningless; use ID 0 for ad-hoc queries).
func (ix *Index) gather(s *queryScratch, q Query, qUni similarity.UniStats, stop float64) []*entry {
	s.cands = s.cands[:0]
	var probes, lenPruned int64

	ix.mu.RLock()
	s.order = append(s.order[:0], q.Set.Entries...)
	sortProbeOrder(s.order)
	residual := qUni
	residual.Sub(q.Extra) // extras match nothing; they never feed postings
	s.begin(int(ix.nextSlot))
	for _, ent := range s.order {
		if similarity.ResidualUpperBound(ix.measure, qUni, residual)+boundEps < stop {
			break
		}
		for _, e := range ix.postings[ent.Elem] {
			probes++
			if e.set.ID == q.Set.ID {
				continue
			}
			if ix.entities[e.set.ID] != e {
				continue // tombstoned or replaced
			}
			if s.marks[e.slot] == s.epoch {
				continue
			}
			s.marks[e.slot] = s.epoch
			if similarity.SimUpperBound(ix.measure, qUni, e.uni)+boundEps < stop {
				lenPruned++
				continue
			}
			s.cands = append(s.cands, e)
		}
		var probed similarity.UniStats
		probed.AccumulateUni(ent.Count)
		residual.Sub(probed)
	}
	ix.mu.RUnlock()

	ix.probes.Add(probes)
	ix.candidates.Add(int64(len(s.cands)) + lenPruned)
	ix.lenPruned.Add(lenPruned)
	return s.cands
}

// QueryThreshold returns every indexed entity whose similarity to q is at
// least t, sorted by decreasing similarity (ID ascending on ties). The
// exact-verification loop runs after the read lock is released: entries
// are immutable, so a concurrent Add/Remove cannot corrupt the snapshot —
// it only makes the answer reflect the index as of the probe.
func (ix *Index) QueryThreshold(q Query, t float64) []Match {
	return ix.QueryThresholdInto(q, t, nil)
}

// QueryThresholdInto is QueryThreshold appending into buf (typically a
// reused buffer truncated to buf[:0]) instead of allocating the result —
// the allocation-free form the sharded fan-out and steady-state callers
// use. Only the appended region is sorted, so buf's existing contents
// are preserved untouched.
func (ix *Index) QueryThresholdInto(q Query, t float64, buf []Match) []Match {
	ix.queries.Add(1)
	if len(q.Set.Entries) == 0 {
		return buf
	}
	qUni := queryStats(q)
	s := ix.getScratch()
	cands := ix.gather(s, q, qUni, t)

	base := len(buf)
	for _, e := range cands {
		conj := similarity.ConjOf(q.Set, e.set)
		if conj.Common == 0 {
			// Only entities sharing an element qualify, even at t = 0. A
			// posting hit is always an overlap unless a hand-built
			// multiset carries a zero count.
			continue
		}
		sim := ix.measure.Sim(qUni, e.uni, conj)
		if sim+verifyEps >= t {
			buf = append(buf, Match{ID: e.set.ID, Sim: sim})
		}
	}
	ix.verified.Add(int64(len(cands)))
	ix.results.Add(int64(len(buf) - base))
	ix.putScratch(s)
	SortMatches(buf[base:])
	return buf
}

// QueryTopK returns the k most similar indexed entities, sorted by
// decreasing similarity (ID ascending on ties). Verification interleaves
// with probing so the current k-th best similarity becomes a rising
// residual-bound floor; the whole pass holds the read lock to keep the
// floor consistent with the probed snapshot.
func (ix *Index) QueryTopK(q Query, k int) []Match {
	return ix.QueryTopKInto(q, k, nil)
}

// QueryTopKInto is QueryTopK appending into buf (typically a reused
// buffer truncated to buf[:0]) instead of allocating the result. Only
// the appended region is sorted; buf's existing contents are preserved.
func (ix *Index) QueryTopKInto(q Query, k int, buf []Match) []Match {
	ix.queries.Add(1)
	if k <= 0 || len(q.Set.Entries) == 0 {
		return buf
	}
	qUni := queryStats(q)
	s := ix.getScratch()
	s.heap = s.heap[:0]
	s.cnt.probes, s.cnt.cands, s.cnt.lenPruned, s.cnt.verified = 0, 0, 0, 0

	ix.mu.RLock()
	ix.topkPrefixLocked(s, q, qUni, k)
	ix.mu.RUnlock()

	ix.probes.Add(s.cnt.probes)
	ix.candidates.Add(s.cnt.cands)
	ix.lenPruned.Add(s.cnt.lenPruned)
	ix.verified.Add(s.cnt.verified)
	base := len(buf)
	buf = append(buf, s.heap...)
	ix.putScratch(s)
	SortMatches(buf[base:])
	ix.results.Add(int64(len(buf) - base))
	return buf
}

// topkPrefixLocked is the inverted-index top-k pass: posting lists in
// decreasing-multiplicity order with the current k-th best similarity
// as a rising residual-bound floor. Caller holds the read lock for the
// whole pass so the floor stays consistent with the probed snapshot.
func (ix *Index) topkPrefixLocked(s *queryScratch, q Query, qUni similarity.UniStats, k int) {
	s.order = append(s.order[:0], q.Set.Entries...)
	sortProbeOrder(s.order)
	residual := qUni
	residual.Sub(q.Extra)
	s.begin(int(ix.nextSlot))
	for _, ent := range s.order {
		// Below k results every candidate is wanted, so the floor is 0
		// (with t=0 semantics: any overlap qualifies).
		floor := 0.0
		if len(s.heap) == k {
			floor = s.heap[0].Sim
			if similarity.ResidualUpperBound(ix.measure, qUni, residual) < floor-boundEps {
				break
			}
		}
		for _, e := range ix.postings[ent.Elem] {
			s.cnt.probes++
			if e.set.ID == q.Set.ID {
				continue
			}
			if ix.entities[e.set.ID] != e {
				continue
			}
			if s.marks[e.slot] == s.epoch {
				continue
			}
			s.marks[e.slot] = s.epoch
			s.cnt.cands++
			if len(s.heap) == k && similarity.SimUpperBound(ix.measure, qUni, e.uni) < floor-boundEps {
				s.cnt.lenPruned++
				continue
			}
			s.cnt.verified++
			//lint:vsmart-allow lockscope top-k must verify under the RLock so the rising floor keeps pruning; threshold queries verify outside it
			sim := ix.measure.Sim(qUni, e.uni, similarity.ConjOf(q.Set, e.set))
			s.heap.offer(Match{ID: e.set.ID, Sim: sim}, k)
			if len(s.heap) == k {
				floor = s.heap[0].Sim
			}
		}
		var probed similarity.UniStats
		probed.AccumulateUni(ent.Count)
		residual.Sub(probed)
	}
}

// worseMatch is the single result-ordering comparator: a ranks below b on
// lower similarity, or on higher ID at equal similarities. Threshold
// sorting, the top-k heap, and the tests all defer to it, so identical
// index states always answer identically.
func worseMatch(a, b Match) bool {
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.ID > b.ID
}

// SortMatches orders results best first under worseMatch. It is the one
// canonical result ordering: threshold queries, the top-k heap, and the
// sharded fan-out merge (internal/shard) all defer to it, so any
// partitioning of the same entities answers identically.
func SortMatches(ms []Match) {
	// slices.SortFunc, not sort.Slice: the latter's reflect-based swapper
	// allocates, and this runs on the allocation-free query path.
	slices.SortFunc(ms, func(a, b Match) int {
		switch {
		case worseMatch(b, a):
			return -1
		case worseMatch(a, b):
			return 1
		default:
			return 0
		}
	})
}

// MergeTopK folds per-partition top-k lists into the global top-k,
// best first — the merge step of a sharded QueryTopK fan-out. Feeding
// each partition's local top-k through the same bounded heap the
// single-index query uses preserves exactness: an entity in the global
// top-k is necessarily in its own partition's top-k.
func MergeTopK(k int, lists ...[]Match) []Match {
	if k <= 0 {
		return nil
	}
	return MergeTopKInto(k, nil, lists...)
}

// mergeHeapPool recycles the bounded heaps MergeTopKInto folds with, so
// steady-state fan-out merges stop allocating a heap per query. The
// pooled heaps are not tied to any Index: the merge only rearranges
// Match values.
var mergeHeapPool = sync.Pool{New: func() any { return new(topkHeap) }}

// MergeTopKInto is MergeTopK appending into buf (typically a reused
// buffer truncated to buf[:0]) instead of allocating the result. Only
// the appended region is sorted; buf's existing contents are preserved.
func MergeTopKInto(k int, buf []Match, lists ...[]Match) []Match {
	if k <= 0 {
		return buf
	}
	hp := mergeHeapPool.Get().(*topkHeap)
	h := (*hp)[:0]
	for _, list := range lists {
		for _, m := range list {
			h.offer(m, k)
		}
	}
	base := len(buf)
	buf = append(buf, h...)
	*hp = h
	mergeHeapPool.Put(hp)
	SortMatches(buf[base:])
	return buf
}

// topkHeap is a bounded min-heap under worseMatch, so the root is always
// the match the next better candidate should evict; among equal
// similarities the smallest IDs survive.
type topkHeap []Match

func (h topkHeap) worse(i, j int) bool { return worseMatch(h[i], h[j]) }

func (h *topkHeap) offer(m Match, k int) {
	if len(*h) < k {
		*h = append(*h, m)
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
	if !worseMatch((*h)[0], m) {
		return // m does not beat the current k-th best
	}
	(*h)[0] = m
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
