package vsmartjoin

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsmartjoin/internal/index"
	"vsmartjoin/internal/metrics"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/shard"
	"vsmartjoin/internal/similarity"
	"vsmartjoin/internal/wal"
)

// ErrNotDurable is returned by Index.Snapshot on an index opened
// without a Dir: there is nowhere to snapshot to.
var ErrNotDurable = errors.New("vsmartjoin: index has no durability directory")

// ErrIndexClosed is returned by mutations and snapshots after Close.
var ErrIndexClosed = errors.New("vsmartjoin: index is closed")

// ErrNoIndex is returned by OpenIndex when the directory holds no index
// (missing, empty, or never built). NewIndex treats the same situation
// as "create a fresh one".
var ErrNoIndex = errors.New("vsmartjoin: directory holds no index")

// defaultSnapshotEvery is the automatic snapshot cadence: the number of
// mutations logged to one shard after which that shard cuts a snapshot
// and truncates its write-ahead log.
const defaultSnapshotEvery = 4096

// maxShards bounds IndexOptions.Shards: past this the fan-out overhead
// of a query dwarfs any lock-contention win.
const maxShards = 1024

// defaultGroupCommitWindow is how long the group committer waits after
// the first pending record for neighbors to pile onto the same fsync
// (DurabilitySync only). Small enough to stay invisible next to the
// fsync itself, large enough to absorb a burst of concurrent writers.
const defaultGroupCommitWindow = 200 * time.Microsecond

// defaultMutationQueueDepth bounds each async mutation queue: a full
// queue makes AddAsync block (backpressure), never drop.
const defaultMutationQueueDepth = 1024

// applierDrainMax caps how many queued mutations one applier drains
// into a single applyBatch call — the batch each shard applies under
// one lock acquisition, and the batch one WAL AppendBatch covers.
const applierDrainMax = 256

// Durability selects how a durable index acknowledges mutations.
type Durability int

const (
	// DurabilityOS (the default) pushes every WAL record to the
	// operating system before the mutation is acknowledged but fsyncs
	// only at snapshots and Close: a process crash loses nothing, a
	// machine crash can lose the un-fsynced tail of each shard's log.
	DurabilityOS Durability = iota
	// DurabilitySync acknowledges a mutation only after an fsync covers
	// its WAL record. Fsyncs are group-committed: a committer goroutine
	// coalesces the fsyncs of concurrent mutations into one, so the
	// per-mutation cost is an fsync amortized over every write in the
	// same commit window, not an fsync each. Requires Dir.
	DurabilitySync
)

// IndexOptions configures NewIndex, OpenIndex, BuildIndex, and
// BuildIndexFiles.
type IndexOptions struct {
	// Measure is the similarity measure name (default "ruzicka"); it is
	// fixed for the life of the index because posting-list pruning bounds
	// are measure-specific. For a durable index the measure is recorded
	// in every snapshot and reopening under a different one is refused.
	Measure string

	// Shards is the number of hash-partitioned sub-indexes (default 1,
	// maximum 1024). Entities are routed to shards by their ID, queries
	// fan out to all shards in parallel and merge, and mutations lock
	// only the owning shard — identical results to one shard, but
	// writers stop serializing against the whole dataset. Shard counts
	// around GOMAXPROCS are a good default for write-heavy loads; a
	// read-only index gains little from sharding.
	//
	// For a durable index the shard count is part of the on-disk layout
	// (one log directory per shard). Opening an existing data dir with
	// Shards == 0 adopts the count found on disk; a nonzero count that
	// disagrees with the disk is refused, since the routing hash would
	// scatter entities away from the files that hold them.
	Shards int

	// Dir, when non-empty, makes the index durable: every Add/Remove is
	// appended to the owning shard's write-ahead log under Dir before it
	// is applied, and periodic snapshots truncate the logs. NewIndex
	// recovers the prior state (snapshot load + log replay, tolerating a
	// torn final frame) from a Dir that already holds one; OpenIndex
	// does the same but refuses to start fresh. Empty means fully
	// in-memory. The layout under Dir is one subdirectory per shard
	// ("shard-000", ...), each holding one snap-<gen>/wal-<gen>
	// generation — the same files the bulk builder (BuildIndexFiles)
	// writes, so a batch-built dir and a serving-written dir are
	// interchangeable.
	Dir string

	// SnapshotEvery is the number of mutations logged to one shard
	// between automatic snapshots of that shard (default 4096). Negative
	// disables automatic snapshots — the logs then grow until Snapshot
	// or Close. Ignored without Dir.
	SnapshotEvery int

	// Durability selects the acknowledgement contract of a durable
	// index (requires Dir): DurabilityOS (default) never fsyncs until a
	// snapshot, DurabilitySync group-commits an fsync before every
	// acknowledgement. Ignored without Dir.
	Durability Durability

	// GroupCommitWindow is how long the group committer waits after the
	// first pending WAL record for more to join the same fsync
	// (DurabilitySync only; default 200µs, negative commits
	// immediately). A longer window batches harder under bursty load at
	// the cost of per-mutation latency.
	GroupCommitWindow time.Duration

	// MutationQueueDepth bounds each of the per-shard async mutation
	// queues behind AddAsync (default 1024). A full queue blocks the
	// next AddAsync until the applier drains — backpressure, not loss.
	MutationQueueDepth int

	// CacheSize bounds the query result cache: a per-index LRU over
	// canonicalized queries ((measure, query elements, t or k) keys)
	// that short-circuits repeated queries — the head of a zipf-skewed
	// query population — without ever serving a stale answer: every
	// Add/Remove bumps the index generation and a cached entry only hits
	// while its stamped generation is current. 0 means the default
	// (1024 entries); negative disables caching entirely. Hit/miss
	// traffic is reported by IndexStats.CacheHits/CacheMisses.
	CacheSize int

	// BuildShuffleBufferBytes caps per-map-task shuffle memory of the
	// offline BuildIndexFiles job before sorted runs spill to disk
	// (0 = all in memory); see Options.ShuffleBufferBytes for the
	// mechanism. It tunes only the bulk build, never the index the
	// files open into, and is ignored by NewIndex/OpenIndex/BuildIndex.
	BuildShuffleBufferBytes int64
}

// Match is one online query result. Results are always ordered
// canonically: decreasing similarity, entity name ascending on ties.
// Name-based tie-breaking (rather than internal entity IDs) is what
// makes results reproducible across every deployment shape — a single
// index, a sharded one, and a Cluster of independent nodes (each with
// its own private ID space) all answer byte-identically.
type Match struct {
	Entity     string  `json:"entity"`
	Similarity float64 `json:"similarity"`
}

// worsePublicMatch is the canonical public result comparator: a ranks
// below b on lower similarity, or on greater entity name at equal
// similarities. Entity names are unique, so this is a total order.
func worsePublicMatch(a, b Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity < b.Similarity
	}
	return a.Entity > b.Entity
}

// SortMatchesByName orders matches best first under the canonical
// public ordering (similarity descending, entity name ascending on
// ties). Index queries return already-sorted results; the function is
// exported for callers merging match lists from several sources — the
// cluster router's scatter-gather merge is built on it.
func SortMatchesByName(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return worsePublicMatch(ms[j], ms[i]) })
}

// IndexStats snapshots the size and traffic counters of an Index; see
// the field docs on internal/index.Stats for the pruning pipeline the
// Probes → Candidates → Verified → Results funnel describes. Entities,
// Adds, Removes and the query counters are global; Elements and
// Postings are summed across shards (an element present in several
// shards counts once per shard). Generation is the highest write-ahead
// log generation across shards (0 for a volatile index); bulk-built
// directories open at generation 1.
type IndexStats struct {
	Measure    string `json:"measure"`
	Shards     int    `json:"shards"`
	Generation uint64 `json:"generation"`
	Entities   int    `json:"entities"`
	Elements   int    `json:"elements"`
	Postings   int    `json:"postings"`

	Adds        int64 `json:"adds"`
	Removes     int64 `json:"removes"`
	Compactions int64 `json:"compactions"`

	Queries      int64 `json:"queries"`
	Probes       int64 `json:"probes"`
	Candidates   int64 `json:"candidates"`
	LengthPruned int64 `json:"length_pruned"`
	Verified     int64 `json:"verified"`
	Results      int64 `json:"results"`

	// CacheHits/CacheMisses count result-cache traffic (both zero when
	// the cache is disabled via CacheSize < 0); CacheEntries is the
	// current number of cached answers. A cache hit bypasses the inner
	// index entirely, so it advances none of the funnel counters
	// (Queries included) — with the cache on, public query traffic is
	// CacheHits + CacheMisses and the funnel keeps describing real
	// pruning work.
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`

	// Latency digests of the serving path, in nanoseconds. QueryLatency
	// covers uncached public queries end to end, sampled one query in
	// eight so the timing stays off the hot path (cache hits are counted
	// above but never timed); MergeLatency is the cross-shard merge step
	// of multi-shard fan-outs; WALAppend/WALFsync are durability stalls
	// merged across the per-shard logs (empty for a volatile index);
	// WALCommitWait is how long acknowledged mutations waited for their
	// group commit (DurabilitySync only). Full-resolution histograms
	// back Index.Metrics and GET /metrics.
	QueryLatency  LatencySummary `json:"query_latency"`
	MergeLatency  LatencySummary `json:"merge_latency"`
	WALAppend     LatencySummary `json:"wal_append"`
	WALFsync      LatencySummary `json:"wal_fsync"`
	WALCommitWait LatencySummary `json:"wal_commit_wait"`

	// Write-batching telemetry. WALBatchSize is the records-per-
	// AppendBatch distribution; WALGroupCommitSize is records per fsync
	// (the group-commit amortization factor); WALRecords and WALFsyncs
	// are the totals whose ratio is the fsyncs-per-mutation cost;
	// MutationQueueDepth is the number of AddAsync mutations currently
	// queued behind the appliers (0 when the pipeline has never run).
	WALBatchSize       SizeSummary `json:"wal_batch_size"`
	WALGroupCommitSize SizeSummary `json:"wal_group_commit_size"`
	WALRecords         int64       `json:"wal_records"`
	WALFsyncs          int64       `json:"wal_fsyncs"`
	MutationQueueDepth int         `json:"mutation_queue_depth"`
}

// Index is the online counterpart of AllPairs: an incremental inverted
// similarity index serving threshold and top-k queries against a live
// dataset. Entities can be added and removed at any time, concurrently
// with queries; see internal/index for the data structure and locking
// design, internal/shard for the hash-partitioned fan-out, and
// internal/wal for the durability layer. Use AllPairs for periodic full
// joins and an Index for interactive lookups against the same entities.
type Index struct {
	measure similarity.Measure
	inner   *shard.Set

	// mu guards the name tables and serializes logged mutations against
	// snapshots; the shards have their own locks, always nested inside
	// mu, so the nesting cannot deadlock.
	mu     sync.RWMutex
	dict   *multiset.Dict
	byName map[string]multiset.ID
	names  map[multiset.ID]string
	nextID multiset.ID

	logs          []*wal.Log // nil for a volatile index; one per shard otherwise
	snapshotEvery int
	logged        []int // per-shard mutations since that shard's snapshot; guarded by mu
	closed        bool

	// Async mutation pipeline (AddAsync): bounded queues drained by one
	// applier goroutine each, started lazily on the first AddAsync so an
	// index that never uses the pipe never spawns it. queues and
	// pipeStopped are guarded by mu; pipeWG tracks in-flight enqueues so
	// Close can drain the pipe without racing a send into a closed
	// channel; applierWG tracks the applier goroutines themselves.
	durability  Durability
	gcWindow    time.Duration
	queueDepth  int
	pipeOnce    sync.Once
	queues      []chan mutation
	pipeStopped bool
	pipeWG      sync.WaitGroup
	applierWG   sync.WaitGroup

	// gen counts mutations; every Add/Remove bumps it, invalidating all
	// result-cache entries stamped with an earlier value. cache is nil
	// when IndexOptions.CacheSize is negative.
	gen   atomic.Uint64
	cache *queryCache

	// queryLatency times uncached public queries end to end (probe,
	// verify, resolve), sampled one query in eight per pooled query
	// buffer (queryBuf.sample) so neither the clock reads nor the
	// histogram's shared counters ride the hot path. The stamp is taken
	// only after a cache miss — hits are counted by the cache, not
	// timed here.
	queryLatency metrics.Histogram
}

// NewIndex returns an index configured by opts. With a Dir it opens (or
// creates) the durability directory and recovers any prior state, so a
// killed process restarts into exactly the entities it had indexed.
func NewIndex(opts IndexOptions) (*Index, error) {
	return newIndex(opts, true)
}

// OpenIndex opens an existing durable index — typically one built
// offline by BuildIndexFiles or vsmartjoin -build-index. It behaves
// exactly like NewIndex with the same options except that a directory
// holding no index is ErrNoIndex instead of a fresh empty index, so a
// misspelled path cannot silently serve nothing. A freshly bulk-built
// dir opens with zero WAL records to replay: the snapshots load through
// the sealed bulk path and the index is immediately ready for queries
// and for further durable Add/Remove.
func OpenIndex(opts IndexOptions) (*Index, error) {
	if opts.Dir == "" {
		return nil, errors.New("vsmartjoin: OpenIndex requires Dir")
	}
	return newIndex(opts, false)
}

func newIndex(opts IndexOptions, create bool) (*Index, error) {
	name := opts.Measure
	if name == "" {
		name = "ruzicka"
	}
	m, err := similarity.ByName(name)
	if err != nil {
		return nil, err
	}
	if opts.Shards < 0 || opts.Shards > maxShards {
		return nil, fmt.Errorf("vsmartjoin: shard count %d outside [1, %d]", opts.Shards, maxShards)
	}
	shards := opts.Shards
	if opts.Dir != "" {
		diskShards, err := wal.CountShardDirs(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("vsmartjoin: open index dir: %w", err)
		}
		if diskShards == 0 && !create {
			return nil, fmt.Errorf("%w: %s", ErrNoIndex, opts.Dir)
		}
		if diskShards > 0 {
			if shards == 0 {
				shards = diskShards
			} else if shards != diskShards {
				return nil, fmt.Errorf("vsmartjoin: %s holds %d shards, options ask for %d",
					opts.Dir, diskShards, shards)
			}
		}
	}
	if shards == 0 {
		shards = 1
	}
	snapshotEvery := opts.SnapshotEvery
	if snapshotEvery == 0 {
		snapshotEvery = defaultSnapshotEvery
	}
	switch opts.Durability {
	case DurabilityOS, DurabilitySync:
	default:
		return nil, fmt.Errorf("vsmartjoin: unknown durability %d", opts.Durability)
	}
	if opts.Durability == DurabilitySync && opts.Dir == "" {
		return nil, errors.New("vsmartjoin: DurabilitySync requires Dir")
	}
	gcWindow := opts.GroupCommitWindow
	if gcWindow == 0 {
		gcWindow = defaultGroupCommitWindow
	}
	queueDepth := opts.MutationQueueDepth
	if queueDepth <= 0 {
		queueDepth = defaultMutationQueueDepth
	}
	ix := &Index{
		measure:       m,
		inner:         shard.New(m, shards),
		dict:          multiset.NewDict(),
		byName:        make(map[string]multiset.ID),
		names:         make(map[multiset.ID]string),
		nextID:        1,
		snapshotEvery: snapshotEvery,
		durability:    opts.Durability,
		gcWindow:      gcWindow,
		queueDepth:    queueDepth,
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = defaultCacheSize
	}
	if cacheSize > 0 {
		ix.cache = newQueryCache(cacheSize)
	}
	if opts.Dir != "" {
		if err := ix.openLogs(opts.Dir); err != nil {
			for _, l := range ix.logs {
				if l != nil {
					//lint:vsmart-allow walerr best-effort cleanup on the constructor's error path; the openLogs error is what the caller gets
					l.Close()
				}
			}
			return nil, fmt.Errorf("vsmartjoin: open index dir: %w", err)
		}
	}
	return ix, nil
}

// recovered is one live entity reconstructed from a shard's files.
type recovered struct {
	id   multiset.ID
	name string
	set  multiset.Multiset
}

// openLogs recovers every shard's log directory under dir and
// bulk-loads the result. Each shard's snapshot + WAL replays into
// shard-local tables first (cheap maps, no index structures), because
// only within one shard are events totally ordered; the shard-local
// live sets are then merged into the global name tables and fed through
// the sealed internal/index bulk path in one pass per shard. A name
// claimed by two shards — possible only when a machine crash loses one
// shard's un-fsynced WAL tail while a later record in another shard
// survived — resolves to the higher entity ID: IDs are assigned
// monotonically, so the higher one is always the more recent add.
// The index is not yet shared, so no locking is needed here.
func (ix *Index) openLogs(dir string) error {
	n := ix.inner.Shards()
	ix.logs = make([]*wal.Log, n)
	ix.logged = make([]int, n)
	perShard := make([][]recovered, n)
	for i := 0; i < n; i++ {
		local := make(map[multiset.ID]recovered)
		localByName := make(map[string]multiset.ID)
		apply := func(rec wal.Record, inSnapshot bool) error {
			switch rec.Op {
			case wal.OpAdd:
				id := multiset.ID(rec.ID)
				if id == 0 {
					return fmt.Errorf("recover: entity %q has no ID", rec.Entity)
				}
				if shard.ShardOf(id, n) != i {
					return fmt.Errorf("recover: entity %d routes to shard %d but its record is in %s (was the index built with a different shard count?)",
						id, shard.ShardOf(id, n), wal.ShardDirName(i))
				}
				if old, ok := localByName[rec.Entity]; ok && old != id {
					if inSnapshot {
						return fmt.Errorf("recover: %s: snapshot holds entity %q twice (IDs %d and %d)",
							wal.ShardDirName(i), rec.Entity, old, id)
					}
					// Within one ordered log this means the remove that
					// freed the name was lost; the newer add supersedes it.
					delete(local, old)
				}
				local[id] = recovered{id: id, name: rec.Entity, set: multiset.New(id, ix.internElements(rec.Elements))}
				localByName[rec.Entity] = id
			case wal.OpRemove:
				if id, ok := localByName[rec.Entity]; ok {
					delete(local, id)
					delete(localByName, rec.Entity)
				}
			default:
				return fmt.Errorf("recover: unknown wal op %d", rec.Op)
			}
			return nil
		}
		var walOpts []wal.Option
		if ix.durability == DurabilitySync {
			walOpts = append(walOpts, wal.WithGroupCommit(ix.gcWindow))
		}
		l, err := wal.Open(filepath.Join(dir, wal.ShardDirName(i)), ix.measure.Name(),
			func(rec wal.Record) error { return apply(rec, true) },
			func(rec wal.Record) error { return apply(rec, false) },
			walOpts...)
		if err != nil {
			return err
		}
		ix.logs[i] = l
		perShard[i] = make([]recovered, 0, len(local))
		for _, r := range local {
			perShard[i] = append(perShard[i], r)
		}
		sort.Slice(perShard[i], func(a, b int) bool { return perShard[i][a].id < perShard[i][b].id })
	}

	// Cross-shard merge: resolve duplicate names (higher ID wins), then
	// bulk-load each shard's survivors and build the global name tables.
	owner := make(map[string]multiset.ID)
	for _, shardEnts := range perShard {
		for _, r := range shardEnts {
			if old, ok := owner[r.name]; !ok || r.id > old {
				owner[r.name] = r.id
			}
		}
	}
	var conflicted []int
	for i, shardEnts := range perShard {
		sets := make([]multiset.Multiset, 0, len(shardEnts))
		stale := false
		for _, r := range shardEnts {
			if owner[r.name] != r.id {
				stale = true
				continue // superseded by a newer add in another shard
			}
			sets = append(sets, r.set)
			ix.byName[r.name] = r.id
			ix.names[r.id] = r.name
			if r.id >= ix.nextID {
				ix.nextID = r.id + 1
			}
		}
		if err := ix.inner.At(i).BulkLoad(sets); err != nil {
			return err
		}
		if stale {
			conflicted = append(conflicted, i)
		}
	}
	// A shard that held a superseded entry resolved it in memory only;
	// its files still contain the stale add, which would resurrect if
	// the winning entity were later removed and this shard never
	// snapshotted again. Rewrite such shards now, while the resolution
	// is known. (The index is not yet shared, so the no-lock call to
	// the *Locked helper is safe.)
	for _, si := range conflicted {
		if err := ix.snapshotShardLocked(si); err != nil {
			return err
		}
	}
	return nil
}

// BuildIndex bulk-loads every entity of a Dataset into a fresh index
// through the incremental Add path. For a durable index this WAL-logs
// every entity one by one — use BuildIndexFiles + OpenIndex to
// materialize a large corpus as snapshot files instead.
func BuildIndex(d *Dataset, opts IndexOptions) (*Index, error) {
	ix, err := NewIndex(opts)
	if err != nil {
		return nil, err
	}
	if d == nil {
		return ix, nil
	}
	var addErr error
	d.Each(func(name string, counts map[string]uint32) bool {
		addErr = ix.Add(name, counts)
		return addErr == nil
	})
	if addErr != nil {
		return nil, addErr
	}
	return ix, nil
}

// internElements interns WAL element names into index entries, dropping
// zero counts (multiset.New merges duplicates and sorts).
func (ix *Index) internElements(elems []wal.Element) []multiset.Entry {
	entries := make([]multiset.Entry, 0, len(elems))
	for _, el := range elems {
		if el.Count == 0 {
			continue
		}
		entries = append(entries, multiset.Entry{Elem: ix.dict.Intern(el.Name), Count: el.Count})
	}
	return entries
}

// walAddRecord builds the logged form of an Add: element names sorted,
// zero counts dropped, so identical mutations always encode identically.
func walAddRecord(id multiset.ID, entity string, counts map[string]uint32) wal.Record {
	names := make([]string, 0, len(counts))
	for name, c := range counts {
		if c > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	elems := make([]wal.Element, len(names))
	for i, name := range names {
		elems[i] = wal.Element{Name: name, Count: counts[name]}
	}
	return wal.Record{Op: wal.OpAdd, ID: uint64(id), Entity: entity, Elements: elems}
}

// applyRemoveLocked deletes from the name tables and the owning shard.
func (ix *Index) applyRemoveLocked(entity string) bool {
	id, ok := ix.byName[entity]
	if !ok {
		return false
	}
	delete(ix.byName, entity)
	delete(ix.names, id)
	return ix.inner.Remove(id)
}

// Add indexes an entity with its element multiplicities, replacing any
// previous entity of the same name (upsert semantics — unlike
// Dataset.Add, which merges). Zero counts are ignored. On a durable
// index the mutation is appended to the owning shard's write-ahead log
// first; if the append fails the in-memory index is left untouched and
// the error is returned — an append error always means the mutation
// did NOT happen (automatic snapshot trouble is reported by
// Snapshot/Close instead). Under DurabilitySync, Add additionally
// waits — outside the index lock, so queries and other writers keep
// flowing — until a group-committed fsync covers the record; an error
// from that wait means the mutation is applied in memory but NOT
// guaranteed durable. A volatile Add never fails.
//
// The inner insert happens under the name-table lock: if it didn't, a
// concurrent Remove of the same name could run between the two steps and
// leave a nameless ghost entity in the inner index.
func (ix *Index) Add(entity string, counts map[string]uint32) error {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return ErrIndexClosed
	}
	// The ID is fixed before the WAL append: routing is a hash of the
	// ID, so the record must land in the shard log it will replay from.
	id, known := ix.byName[entity]
	if !known {
		id = ix.nextID
	}
	si := shard.ShardOf(id, ix.inner.Shards())
	var wait func() error
	if ix.logs != nil {
		var err error
		wait, err = ix.logs[si].AppendDeferred(walAddRecord(id, entity, counts))
		if err != nil {
			ix.mu.Unlock()
			return fmt.Errorf("vsmartjoin: add %q: %w", entity, err)
		}
	}
	if !known {
		ix.nextID++
		ix.byName[entity] = id
		ix.names[id] = entity
	}
	entries := make([]multiset.Entry, 0, len(counts))
	for elem, c := range counts {
		if c == 0 {
			continue
		}
		entries = append(entries, multiset.Entry{Elem: ix.dict.Intern(elem), Count: c})
	}
	ix.inner.Add(multiset.New(id, entries))
	ix.gen.Add(1) // invalidate cached answers computed before this add
	ix.maybeSnapshotLocked(si)
	ix.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("vsmartjoin: add %q: commit: %w", entity, err)
		}
	}
	return nil
}

// Remove deletes an entity by name, reporting whether it was indexed.
// The removal of a name that is not indexed is a no-op and is not
// logged. Like Add, the WAL append happens before the in-memory
// mutation; an append error (never for a volatile index) means the
// removal did not happen, and a DurabilitySync commit-wait error means
// it is applied but not guaranteed durable.
func (ix *Index) Remove(entity string) (bool, error) {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return false, ErrIndexClosed
	}
	id, ok := ix.byName[entity]
	if !ok {
		ix.mu.Unlock()
		return false, nil
	}
	si := shard.ShardOf(id, ix.inner.Shards())
	var wait func() error
	if ix.logs != nil {
		var err error
		wait, err = ix.logs[si].AppendDeferred(wal.Record{Op: wal.OpRemove, Entity: entity})
		if err != nil {
			ix.mu.Unlock()
			return false, fmt.Errorf("vsmartjoin: remove %q: %w", entity, err)
		}
	}
	removed := ix.applyRemoveLocked(entity)
	ix.gen.Add(1) // invalidate cached answers computed before this remove
	ix.maybeSnapshotLocked(si)
	ix.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return removed, fmt.Errorf("vsmartjoin: remove %q: commit: %w", entity, err)
		}
	}
	return removed, nil
}

// BatchEntry is one entity of an AddBatch: a name with its element
// multiplicities, the same shape Add takes.
type BatchEntry struct {
	Entity   string
	Elements map[string]uint32
}

// AddBatch upserts a batch of entities through the batched mutation
// pipeline: one WAL AppendBatch per touched shard (one write and, under
// DurabilitySync, one group-committed fsync covering the whole shard
// group), one shard-lock acquisition per touched shard, and repeated
// upserts of the same entity within the batch coalesced last-write-wins
// before they ever reach the log. Entries are applied in order;
// relative order across different entities is preserved per shard.
//
// On error the batch may be partially applied at shard granularity: the
// entries routed to a shard whose WAL append failed did not happen,
// entries on other shards did (and a DurabilitySync commit-wait error
// means applied but not guaranteed durable, as with Add).
func (ix *Index) AddBatch(entries []BatchEntry) error {
	if len(entries) == 0 {
		return nil
	}
	muts := make([]mutation, len(entries))
	for i, e := range entries {
		muts[i] = mutation{entity: e.Entity, counts: e.Elements}
	}
	_, err := ix.applyBatch(muts)
	return err
}

// RemoveBatch deletes a batch of entities by name with AddBatch's
// batching, ordering, and failure semantics, reporting how many were
// present and removed. Names not indexed are no-ops and are not logged.
func (ix *Index) RemoveBatch(entities []string) (int, error) {
	if len(entities) == 0 {
		return 0, nil
	}
	muts := make([]mutation, len(entities))
	for i, e := range entities {
		muts[i] = mutation{remove: true, entity: e}
	}
	applied, err := ix.applyBatch(muts)
	removed := 0
	for _, ok := range applied {
		if ok {
			removed++
		}
	}
	return removed, err
}

// AddAsync enqueues an upsert on the async mutation pipeline and
// returns immediately with a 1-buffered channel that receives the
// mutation's outcome exactly once: nil after the upsert is applied (and
// under DurabilitySync, durable), or the error that rejected it. The
// pipeline batches queued mutations per shard and applies each batch
// under one lock acquisition with one WAL append — under a write storm
// this is the highest-throughput path. Mutations of the same entity
// are applied in AddAsync call order; a full queue blocks AddAsync
// (backpressure) rather than dropping. Discarding the returned channel
// discards the error with it — callers that care about durability must
// read it (the batchorder analyzer flags a dropped result).
func (ix *Index) AddAsync(entity string, counts map[string]uint32) <-chan error {
	errc := make(chan error, 1)
	ix.mu.Lock()
	if ix.closed || ix.pipeStopped {
		ix.mu.Unlock()
		errc <- ErrIndexClosed
		return errc
	}
	ix.pipeOnce.Do(ix.startPipeLocked)
	q := ix.queues[queueOf(entity, len(ix.queues))]
	ix.pipeWG.Add(1)
	ix.mu.Unlock()
	// The send happens outside mu: a full queue must block this caller,
	// not every reader and writer of the index.
	q <- mutation{entity: entity, counts: counts, errc: errc}
	ix.pipeWG.Done()
	return errc
}

// mutation is one queued or batched write: an upsert (counts) or a
// removal. errc, when non-nil, receives the mutation's outcome exactly
// once (AddAsync); synchronous batch callers read the joined error from
// applyBatch instead.
type mutation struct {
	remove bool
	entity string
	counts map[string]uint32
	errc   chan error
}

// queueOf routes an entity name to an async mutation queue (FNV-1a).
// Routing by name — not by shard of the ID, which is only known once
// the ID is assigned under the lock — still guarantees what ordering
// needs: every mutation of one entity lands in the same queue, FIFO.
func queueOf(entity string, n int) int {
	if n < 2 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(entity); i++ {
		h ^= uint64(entity[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// startPipeLocked spawns the async mutation pipeline: one bounded
// queue and one applier per shard width. Caller holds ix.mu (via the
// pipeOnce in AddAsync), so startup cannot race Close's pipeStopped
// check.
func (ix *Index) startPipeLocked() {
	ix.queues = make([]chan mutation, ix.inner.Shards())
	for i := range ix.queues {
		ix.queues[i] = make(chan mutation, ix.queueDepth)
		ix.applierWG.Add(1)
		go ix.applier(ix.queues[i])
	}
}

// applier drains one async mutation queue: each wakeup batches
// everything currently queued (up to applierDrainMax) into a single
// applyBatch call, so a backed-up queue is applied with one lock
// acquisition and one WAL append instead of one per mutation. Exits
// when the queue closes.
func (ix *Index) applier(q chan mutation) {
	defer ix.applierWG.Done()
	batch := make([]mutation, 0, applierDrainMax)
	for first := range q {
		batch = append(batch[:0], first)
	drain:
		for len(batch) < applierDrainMax {
			select {
			case more, ok := <-q:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		// applyBatch acks every mutation through its errc; the joined
		// error is the synchronous callers' view and has no reader here.
		ix.applyBatch(batch) //nolint — acks flow through each mutation's errc
	}
}

// applyBatch is the one batched write path AddBatch, RemoveBatch, and
// the async appliers share. Under a single ix.mu acquisition it
// resolves entity IDs in order (simulating the name-table effects of
// earlier ops in the same batch), coalesces superseded upserts
// last-write-wins (an upsert later overwritten in the same batch, with
// no intervening remove, never reaches the WAL), appends each touched
// shard's records with one AppendBatch, and applies every op whose
// shard append succeeded — WAL-append-before-apply, per shard, exactly
// like the single-op path. DurabilitySync commit waits run after the
// lock drops: visibility before durability, acknowledgement after the
// fsync. The returned slice reports per-mutation whether state
// actually changed (false for no-op removes, coalesced-away upserts,
// and failed shards).
func (ix *Index) applyBatch(muts []mutation) ([]bool, error) {
	if len(muts) == 0 {
		return nil, nil
	}
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		for _, m := range muts {
			if m.errc != nil {
				m.errc <- ErrIndexClosed
			}
		}
		return nil, ErrIndexClosed
	}
	n := ix.inner.Shards()

	// Pass 1: resolve IDs and in-batch name-table effects in order.
	// overlay maps names touched by this batch to their current in-batch
	// ID (0 after an in-batch remove); lastAdd supports the LWW
	// coalescing — a remove is a barrier, so only upserts with no
	// intervening remove coalesce.
	type resolved struct {
		skip bool // no-op remove, or upsert superseded within the batch
		id   multiset.ID
		si   int
	}
	res := make([]resolved, len(muts))
	overlay := make(map[string]multiset.ID, len(muts))
	lastAdd := make(map[string]int, len(muts))
	for i, m := range muts {
		id, inBatch := overlay[m.entity]
		present := id != 0 // an in-batch 0 is the remove tombstone
		if !inBatch {
			id, present = ix.byName[m.entity]
		}
		if m.remove {
			if !present {
				res[i].skip = true
				continue
			}
			overlay[m.entity] = 0
			delete(lastAdd, m.entity)
			res[i] = resolved{id: id, si: shard.ShardOf(id, n)}
			continue
		}
		if !present {
			// A burned ID on a failed shard append leaves a harmless gap:
			// recovery derives nextID from the highest ID it replays.
			id = ix.nextID
			ix.nextID++
		}
		overlay[m.entity] = id
		if prev, ok := lastAdd[m.entity]; ok {
			res[prev].skip = true // superseded: last write wins
		}
		lastAdd[m.entity] = i
		res[i] = resolved{id: id, si: shard.ShardOf(id, n)}
	}

	// Pass 2: one WAL AppendBatch per touched shard, still under ix.mu
	// so the record order of each shard's log matches the apply order
	// and cannot interleave with a snapshot cut. The commit waits are
	// collected and paid after the lock drops.
	shardErr := map[int]error{}
	waits := map[int]func() error{}
	if ix.logs != nil {
		recs := map[int][]wal.Record{}
		for i, m := range muts {
			if res[i].skip {
				continue
			}
			if m.remove {
				recs[res[i].si] = append(recs[res[i].si], wal.Record{Op: wal.OpRemove, Entity: m.entity})
			} else {
				recs[res[i].si] = append(recs[res[i].si], walAddRecord(res[i].id, m.entity, m.counts))
			}
		}
		for si, rs := range recs {
			wait, err := ix.logs[si].AppendBatchDeferred(rs)
			if err != nil {
				shardErr[si] = fmt.Errorf("vsmartjoin: batch append %s: %w", wal.ShardDirName(si), err)
				continue
			}
			waits[si] = wait
		}
	}

	// Pass 3: apply, in original batch order, every op whose shard
	// append succeeded — name tables inline, shard structures grouped so
	// each shard pays one lock acquisition via index.ApplyBatch.
	applied := make([]bool, len(muts))
	ops := map[int][]index.BatchOp{}
	loggedN := map[int]int{}
	for i, m := range muts {
		r := res[i]
		if r.skip || shardErr[r.si] != nil {
			continue
		}
		if m.remove {
			delete(ix.byName, m.entity)
			delete(ix.names, r.id)
			ops[r.si] = append(ops[r.si], index.BatchOp{Remove: true, ID: r.id})
		} else {
			ix.byName[m.entity] = r.id
			ix.names[r.id] = m.entity
			ops[r.si] = append(ops[r.si], index.BatchOp{Set: multiset.New(r.id, ix.internCounts(m.counts))})
		}
		applied[i] = true
		loggedN[r.si]++
	}
	for si, group := range ops {
		ix.inner.At(si).ApplyBatch(group)
	}
	if len(ops) > 0 {
		ix.gen.Add(1) // one generation bump invalidates the cache for the whole batch
	}
	if ix.logs != nil {
		for si, cnt := range loggedN {
			ix.noteLoggedLocked(si, cnt)
		}
	}
	ix.mu.Unlock()

	// Pass 4: durability waits (outside every lock), then per-mutation
	// acknowledgement. A coalesced-away upsert shares its winner's shard
	// and therefore its winner's outcome.
	for si, wait := range waits {
		if err := wait(); err != nil {
			shardErr[si] = fmt.Errorf("vsmartjoin: batch commit %s: %w", wal.ShardDirName(si), err)
		}
	}
	var errs []error
	for si := range shardErr {
		errs = append(errs, shardErr[si])
	}
	err := errors.Join(errs...)
	for i, m := range muts {
		if m.errc == nil {
			continue
		}
		r := res[i]
		if r.skip && m.remove {
			m.errc <- nil // removing an absent name is a successful no-op
			continue
		}
		m.errc <- shardErr[r.si]
	}
	return applied, err
}

// internCounts interns a counts map into sorted multiset entries,
// dropping zero counts — the map-shaped twin of internElements. Caller
// holds ix.mu (Intern mutates the dictionary).
func (ix *Index) internCounts(counts map[string]uint32) []multiset.Entry {
	entries := make([]multiset.Entry, 0, len(counts))
	for elem, c := range counts {
		if c == 0 {
			continue
		}
		entries = append(entries, multiset.Entry{Elem: ix.dict.Intern(elem), Count: c})
	}
	return entries
}

// maybeSnapshotLocked counts a mutation logged to shard si and cuts
// that shard's snapshot once the cadence is reached. A snapshot failure
// is NOT the mutation's failure — the record is already durably logged
// and applied — so the cadence counter is simply left unreset: the
// shard retries on its next mutation, and Close retries every shard
// whose counter is still positive, surfacing a persistent failure
// there. Caller holds ix.mu.
func (ix *Index) maybeSnapshotLocked(si int) { ix.noteLoggedLocked(si, 1) }

// noteLoggedLocked is maybeSnapshotLocked for n mutations at once — the
// batched write path logs a whole shard group before applying it and
// advances the cadence in one step.
func (ix *Index) noteLoggedLocked(si, n int) {
	if ix.logs == nil || n == 0 {
		return
	}
	ix.logged[si] += n
	if ix.snapshotEvery < 0 || ix.logged[si] < ix.snapshotEvery {
		return
	}
	if err := ix.snapshotShardLocked(si); err != nil {
		return
	}
	ix.logged[si] = 0
}

// snapshotShardLocked writes shard si's snapshot and truncates its log.
// Caller holds ix.mu, which quiesces all mutations (they all take
// ix.mu), so the shard iteration is an atomic view.
func (ix *Index) snapshotShardLocked(si int) error {
	err := ix.logs[si].Snapshot(func(emit func(wal.Record) error) error {
		var emitErr error
		ix.inner.At(si).Range(func(m multiset.Multiset) bool {
			elems := make([]wal.Element, len(m.Entries))
			for i, e := range m.Entries {
				elems[i] = wal.Element{Name: ix.dict.Name(e.Elem), Count: e.Count}
			}
			emitErr = emit(wal.Record{Op: wal.OpAdd, ID: uint64(m.ID), Entity: ix.names[m.ID], Elements: elems})
			return emitErr == nil
		})
		return emitErr
	})
	if err != nil {
		return fmt.Errorf("vsmartjoin: snapshot %s: %w", wal.ShardDirName(si), err)
	}
	return nil
}

// snapshotLocked cuts every shard's snapshot. Caller holds ix.mu.
func (ix *Index) snapshotLocked() error {
	for si := range ix.logs {
		if err := ix.snapshotShardLocked(si); err != nil {
			return err
		}
		ix.logged[si] = 0
	}
	return nil
}

// Snapshot forces a full snapshot and log truncation of every shard on
// a durable index, regardless of the SnapshotEvery cadence. It returns
// ErrNotDurable on a volatile index and ErrIndexClosed after Close;
// any other error is a real persistence failure (a shard whose
// automatic snapshot failed keeps its cadence counter, so it is retried
// here, on its next mutation, and at Close until one succeeds).
func (ix *Index) Snapshot() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.logs == nil {
		return ErrNotDurable
	}
	if ix.closed {
		return ErrIndexClosed
	}
	return ix.snapshotLocked()
}

// Close drains the async mutation pipeline (every mutation already
// enqueued by AddAsync is applied and acknowledged; later AddAsync
// calls are refused), then writes a final snapshot of every shard with
// mutations logged since its last one and closes the write-ahead logs.
// Further mutations fail; queries keep working against the in-memory
// state. Closing a volatile or already-closed index is a no-op for the
// durability state, but still drains the pipeline.
func (ix *Index) Close() error {
	// Phase 1: stop the pipeline. pipeStopped turns AddAsync away before
	// the queues close (an enqueue into a closed channel would panic);
	// pipeWG covers enqueues that passed the check before we flipped it.
	ix.mu.Lock()
	stopping := !ix.pipeStopped && ix.queues != nil
	ix.pipeStopped = true
	ix.mu.Unlock()
	if stopping {
		ix.pipeWG.Wait() // in-flight enqueues land in the queues
		for _, q := range ix.queues {
			close(q)
		}
		ix.applierWG.Wait() // appliers drain and ack everything queued
	}

	// Phase 2: persist and close the durability state.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.logs == nil || ix.closed {
		return nil
	}
	ix.closed = true
	// A shard whose automatic snapshot failed kept its logged count > 0,
	// so the retry below either persists it (the old failure is moot) or
	// fails afresh and is reported here.
	var first error
	for si, l := range ix.logs {
		if ix.logged[si] > 0 {
			if err := ix.snapshotShardLocked(si); err != nil && first == nil {
				first = err
			}
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Len reports the number of indexed entities.
func (ix *Index) Len() int { return ix.inner.Len() }

// Generation reports the highest write-ahead log generation across
// shards, or 0 for a volatile index. A bulk-built directory opens at
// generation 1; every snapshot rotation advances the cut shard.
func (ix *Index) Generation() uint64 {
	ix.mu.RLock()
	logs := ix.logs
	ix.mu.RUnlock()
	var gen uint64
	for _, l := range logs {
		if g := l.Gen(); g > gen {
			gen = g
		}
	}
	return gen
}

// buildQuery maps query element names into the index alphabet without
// interning them. Unknown elements can match nothing, but they still count
// toward the query's cardinalities (every measure's denominator), so they
// are folded into the query's Extra stats.
func (ix *Index) buildQuery(counts map[string]uint32) index.Query {
	// Map iteration order is irrelevant here: Extra accumulation is
	// commutative and multiset.New sorts the entries by element.
	var q index.Query
	entries := make([]multiset.Entry, 0, len(counts))
	ix.mu.RLock()
	for elem, c := range counts {
		if c == 0 {
			continue
		}
		if id, ok := ix.dict.Lookup(elem); ok {
			entries = append(entries, multiset.Entry{Elem: id, Count: c})
		} else {
			q.Extra.AccumulateUni(c)
		}
	}
	ix.mu.RUnlock()
	q.Set = multiset.New(0, entries)
	return q
}

// resolve translates ID matches back to entity names and re-sorts them
// under the canonical public ordering (similarity descending, name
// ascending on ties) — the inner index breaks ties by entity ID, which
// is meaningless outside one process. Matches whose entity was removed
// between the query and the lookup are dropped.
func (ix *Index) resolve(ms []index.Match) []Match {
	out := make([]Match, 0, len(ms))
	ix.mu.RLock()
	for _, m := range ms {
		if name, ok := ix.names[m.ID]; ok {
			out = append(out, Match{Entity: name, Similarity: m.Sim})
		}
	}
	ix.mu.RUnlock()
	SortMatchesByName(out)
	return out
}

// queryBuf is the pooled per-query state of the public read path: the
// internal-match staging buffer (the inner Into query fills it, resolve
// translates it into public matches, and it never reaches a caller, so
// pooling is safe) plus a latency-sampling tick. Query latency is
// observed on one query in eight per buffer: the two clock reads and
// the histogram's shared-cacheline bump leave the hot path seven times
// out of eight, keeping the uncached read at its pre-instrumentation
// cost, while the sampled digest still converges on the steady-state
// distribution (sampling is unbiased — the tick has no correlation
// with query difficulty).
type queryBuf struct {
	ms   []index.Match
	ns   []index.Neighbor
	tick uint8
}

// sample advances the buffer's tick and stamps the clock on the queries
// it elects to time: the first query through a fresh buffer (so a
// lightly used index still populates the digest), then every eighth.
func (b *queryBuf) sample() (metrics.Stamp, bool) {
	b.tick++
	if b.tick&7 != 1 {
		return metrics.Stamp{}, false
	}
	return metrics.Now(), true
}

var matchBufPool = sync.Pool{New: func() any { return new(queryBuf) }}

// QueryThreshold returns every indexed entity whose similarity to the
// query multiset is at least t, in the canonical order (decreasing
// similarity, entity name ascending on ties). A zero t returns every
// entity sharing at least one element with the query — the same overlap
// convention as AllPairs.
func (ix *Index) QueryThreshold(counts map[string]uint32, t float64) ([]Match, error) {
	if err := checkThreshold(t); err != nil {
		return nil, err
	}
	var ks *keyScratch
	var gen uint64
	if ix.cache != nil {
		ks = getKeyScratch()
		ks.thresholdKey(ix.measure.Name(), counts, t)
		// The generation is read BEFORE the query runs: a mutation racing
		// the fill leaves a stale stamp behind, so the entry can only be
		// a false miss later, never a stale hit.
		gen = ix.gen.Load()
		if res, ok := ix.cache.get(ks.b, gen); ok {
			putKeyScratch(ks)
			return res, nil
		}
	}
	bp := matchBufPool.Get().(*queryBuf)
	start, timed := bp.sample()
	ms := ix.inner.QueryThresholdInto(ix.buildQuery(counts), t, bp.ms[:0])
	out := ix.resolve(ms)
	bp.ms = ms
	matchBufPool.Put(bp)
	if timed {
		ix.queryLatency.ObserveSince(start)
	}
	if ix.cache != nil {
		ix.cache.put(ks.b, gen, out)
		putKeyScratch(ks)
	}
	return out, nil
}

// QueryEntity runs QueryThreshold with an indexed entity as the query;
// the entity itself is excluded from the results.
func (ix *Index) QueryEntity(entity string, t float64) ([]Match, error) {
	if err := checkThreshold(t); err != nil {
		return nil, err
	}
	var ks *keyScratch
	var gen uint64
	if ix.cache != nil {
		ks = getKeyScratch()
		ks.entityKey(ix.measure.Name(), entity, t)
		gen = ix.gen.Load() // before the lookup AND the query, like QueryThreshold
		if res, ok := ix.cache.get(ks.b, gen); ok {
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
	bp := matchBufPool.Get().(*queryBuf)
	start, timed := bp.sample()
	ms := ix.inner.QueryThresholdInto(ix.queryByID(id), t, bp.ms[:0])
	out := ix.resolve(ms)
	bp.ms = ms
	matchBufPool.Put(bp)
	if timed {
		ix.queryLatency.ObserveSince(start)
	}
	if ix.cache != nil {
		ix.cache.put(ks.b, gen, out)
		putKeyScratch(ks)
	}
	return out, nil
}

// QueryTopK returns the k most similar indexed entities, best first
// under the canonical order (decreasing similarity, entity name
// ascending on ties). When more than k entities tie at the k-th best
// similarity, the ones with the smallest names win — the inner index
// breaks that tie by entity ID, so a boundary re-query at the k-th
// similarity re-selects among the tied entities by name. That keeps
// top-k selection a pure function of the indexed (name, multiset)
// pairs, independent of insertion order, shard count, and — for the
// cluster router, whose nodes each run a private ID space — of how the
// entities are partitioned across nodes.
func (ix *Index) QueryTopK(counts map[string]uint32, k int) []Match {
	if k <= 0 {
		return nil
	}
	var ks *keyScratch
	var gen uint64
	if ix.cache != nil {
		ks = getKeyScratch()
		ks.topKKey(ix.measure.Name(), counts, k)
		gen = ix.gen.Load() // before the query, like QueryThreshold
		if res, ok := ix.cache.get(ks.b, gen); ok {
			putKeyScratch(ks)
			return res
		}
	}
	q := ix.buildQuery(counts)
	bp := matchBufPool.Get().(*queryBuf)
	start, timed := bp.sample()
	// Probe for k+1: the extra result is a tie detector. If the k-th and
	// (k+1)-th best similarities differ (or fewer than k+1 exist), no tied
	// entity was evicted at the boundary and the heap's selection is
	// already the canonical one — the common case, served by one pass.
	ms := ix.inner.QueryTopKInto(q, k+1, bp.ms[:0])
	if len(ms) == k+1 && ms[k-1].Sim == ms[k].Sim {
		// Ties straddle the boundary, and the heap broke them by entity
		// ID; fetch every entity at or above the boundary similarity and
		// let the canonical sort pick by name. The buffer is reused from
		// the top: the boundary similarity is captured first, and the
		// re-query only appends, never reads the old contents.
		boundary := ms[k-1].Sim
		ms = ix.inner.QueryThresholdInto(q, boundary, ms[:0])
	}
	out := ix.resolve(ms)
	bp.ms = ms
	matchBufPool.Put(bp)
	if timed {
		ix.queryLatency.ObserveSince(start)
	}
	if len(out) > k {
		out = out[:k]
	}
	if ix.cache != nil {
		ix.cache.put(ks.b, gen, out)
		putKeyScratch(ks)
	}
	return out
}

// Elements returns a copy of an indexed entity's current element
// multiplicities, or ok == false if the entity is not indexed. The
// cluster router uses it (via the daemon's GET /entity endpoint) to
// turn an entity-relative query into an element query it can scatter
// to the other partitions.
func (ix *Index) Elements(entity string) (counts map[string]uint32, ok bool) {
	ix.mu.RLock()
	id, ok := ix.byName[entity]
	ix.mu.RUnlock()
	if !ok {
		return nil, false
	}
	m := ix.inner.Snapshot(id)
	if len(m.Entries) == 0 {
		// Either the entity was legitimately indexed empty, or it was
		// removed between the name lookup and the snapshot — re-check so
		// a vanished entity reads as not-found, not as empty.
		ix.mu.RLock()
		_, ok = ix.byName[entity]
		ix.mu.RUnlock()
		if !ok {
			return nil, false
		}
	}
	counts = make(map[string]uint32, len(m.Entries))
	ix.mu.RLock()
	for _, e := range m.Entries {
		counts[ix.dict.Name(e.Elem)] += e.Count
	}
	ix.mu.RUnlock()
	return counts, true
}

// queryByID rebuilds a query from an indexed entity's current multiset.
// The probe carries the entity's own ID so the index skips the self-pair.
func (ix *Index) queryByID(id multiset.ID) index.Query {
	// The inner index owns the authoritative multiset; query it back via a
	// threshold-0 self lookup would be circular, so re-read from postings
	// is avoided by keeping this translation here: QueryEntity is only a
	// convenience, a removed-in-between entity just yields no matches.
	return index.Query{Set: ix.inner.Snapshot(id)}
}

// Stats returns a snapshot of the index counters.
func (ix *Index) Stats() IndexStats {
	s := ix.inner.Stats()
	m := ix.Metrics()
	var cacheHits, cacheMisses int64
	var cacheEntries int
	if ix.cache != nil {
		cacheHits = ix.cache.hits.Load()
		cacheMisses = ix.cache.misses.Load()
		cacheEntries = ix.cache.len()
	}
	return IndexStats{
		Measure:            ix.measure.Name(),
		Shards:             ix.inner.Shards(),
		Generation:         ix.Generation(),
		Entities:           s.Entities,
		Elements:           s.Elements,
		Postings:           s.Postings,
		Adds:               s.Adds,
		Removes:            s.Removes,
		Compactions:        s.Compactions,
		Queries:            s.Queries,
		Probes:             s.Probes,
		Candidates:         s.Candidates,
		LengthPruned:       s.LengthPruned,
		Verified:           s.Verified,
		Results:            s.Results,
		CacheHits:          cacheHits,
		CacheMisses:        cacheMisses,
		CacheEntries:       cacheEntries,
		QueryLatency:       summarize(m.Query),
		MergeLatency:       summarize(m.Merge),
		WALAppend:          summarize(m.WALAppend),
		WALFsync:           summarize(m.WALFsync),
		WALCommitWait:      summarize(m.WALCommitWait),
		WALBatchSize:       summarizeSize(m.WALBatch),
		WALGroupCommitSize: summarizeSize(m.WALGroupCommit),
		WALRecords:         m.WALRecords,
		WALFsyncs:          m.WALFsyncs,
		MutationQueueDepth: ix.queueBacklog(),
	}
}

// queueBacklog sums the AddAsync mutations currently sitting in the
// pipeline queues — an instantaneous gauge, racing the appliers by
// nature.
func (ix *Index) queueBacklog() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, q := range ix.queues {
		n += len(q)
	}
	return n
}

// checkThreshold applies the same threshold convention as AllPairs, except
// that the online API has no "default" sentinel: the caller always states
// the cut-off explicitly.
func checkThreshold(t float64) error {
	if t != t || t < 0 || t > 1 {
		return fmt.Errorf("vsmartjoin: threshold %v outside [0, 1]", t)
	}
	return nil
}
