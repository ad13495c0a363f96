// Package httpd is the one HTTP server skeleton both vsmartjoind modes
// share: NewNode serves a single *vsmartjoin.Index (a cluster
// partition replica, or a standalone daemon — they are the same
// thing), NewRouter serves a *vsmartjoin.Cluster. The two handlers
// expose the same core surface (/add, /remove, /query, /snapshot,
// /healthz, /readyz, /stats) with identical request validation and
// error payloads, so a load balancer or client cannot tell a router
// from a node on the query path; nodes additionally expose the
// endpoints the router itself depends on (/bulk batched mutations for
// anti-entropy, /entity for cross-partition entity queries).
//
// Probing is split in two: GET /healthz is liveness — any 200 means
// the process is serving — while GET /readyz is readiness and carries
// the state counters (generation, entity count, mutation counter,
// shard count) that let a router or load balancer detect a stale or
// lagging replica, not just a dead one.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
)

// querier is the query surface both backends share; handleQuery is
// written against it so node and router mode validate and answer
// /query identically. The context carries the request ID (and, for the
// router backend, cancellation) down to the backend.
type querier interface {
	QueryThreshold(ctx context.Context, counts map[string]uint32, t float64) ([]vsmartjoin.Match, error)
	QueryTopK(ctx context.Context, counts map[string]uint32, k int) ([]vsmartjoin.Match, error)
	QueryEntity(ctx context.Context, entity string, t float64) ([]vsmartjoin.Match, error)
}

// NewNode wires an index to the node HTTP API.
func NewNode(ix *vsmartjoin.Index, opts Options) http.Handler {
	s := &nodeServer{ix: ix, lim: newLimiter(opts.MaxInFlight)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /add", s.handleAdd)
	mux.HandleFunc("POST /remove", s.handleRemove)
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(w, r, indexQuerier{s.ix})
	})
	mux.HandleFunc("POST /knn", func(w http.ResponseWriter, r *http.Request) {
		handleKNN(w, r, indexKNNQuerier{s.ix})
	})
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /bulk", s.handleBulk)
	mux.HandleFunc("GET /entity", s.handleEntity)
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ix.Stats())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return wrap(mux, s.lim)
}

// NewRouter wires a cluster client to the router HTTP API — the same
// core surface a node serves, minus the node-only endpoints, so
// clients built against one daemon talk to a cluster unchanged.
func NewRouter(c *vsmartjoin.Cluster, opts Options) http.Handler {
	s := &routerServer{c: c, lim: newLimiter(opts.MaxInFlight)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /add", s.handleAdd)
	mux.HandleFunc("POST /remove", s.handleRemove)
	mux.HandleFunc("POST /bulk", s.handleBulk)
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(w, r, clusterQuerier{s.c})
	})
	mux.HandleFunc("POST /knn", func(w http.ResponseWriter, r *http.Request) {
		handleKNN(w, r, clusterKNNQuerier{s.c})
	})
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.c.Stats())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return wrap(mux, s.lim)
}

// ---- shared plumbing ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody parses exactly one JSON value into v with unknown fields
// rejected. Every failure is answered with a JSON error payload: 400
// for malformed, unknown-field, or trailing-garbage bodies, 413 when
// the body exceeds the size cap.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	// A well-formed first value followed by more input is a malformed
	// request, not something to silently ignore.
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after request body")
		return false
	}
	return true
}

// handleHealthz is the liveness probe, identical for both modes: the
// handler is only registered once startup (recovery, preload, topology
// validation) finished, so any answer at all means the process is
// serving. State belongs on /readyz.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"serving": true})
}

type addRequest struct {
	Entity   string            `json:"entity"`
	Elements map[string]uint32 `json:"elements"`
}

// validateAdd applies the shared add rules: an entity name, and at
// least one nonzero count — Index.Add drops zeros, and an all-zero
// body would index a permanently unmatchable empty entity.
func validateAdd(w http.ResponseWriter, req addRequest) bool {
	if req.Entity == "" {
		writeError(w, http.StatusBadRequest, "missing entity")
		return false
	}
	for _, c := range req.Elements {
		if c > 0 {
			return true
		}
	}
	writeError(w, http.StatusBadRequest, "missing elements")
	return false
}

type removeRequest struct {
	Entity string `json:"entity"`
}

type queryRequest struct {
	// Exactly one of Entity (an indexed entity name) or Elements (an
	// ad-hoc multiset) names the query.
	Entity   string            `json:"entity"`
	Elements map[string]uint32 `json:"elements"`
	// Exactly one of Threshold or TopK selects the query kind. Threshold
	// is a pointer so that an explicit 0 ("any overlap") is distinguishable
	// from absent.
	Threshold *float64 `json:"threshold"`
	TopK      int      `json:"topk"`
	// Debug asks for a trace annotation block (request ID, per-stage
	// timings) alongside the matches.
	Debug bool `json:"debug"`
}

// queryDebug is the optional trace block a Debug query gets back: the
// request ID (also on the response header, and propagated to every
// node sub-request in router mode) and per-stage wall times.
type queryDebug struct {
	RequestID string `json:"request_id"`
	DecodeNs  int64  `json:"decode_ns"`
	QueryNs   int64  `json:"query_ns"`
	TotalNs   int64  `json:"total_ns"`
}

// handleQuery validates and dispatches a /query body against either
// backend. Backend errors map to 400 (the request named an unknown
// entity, an out-of-range threshold, ...) except cluster-unavailable
// ones, which are 503: the request was fine, the deployment is not.
func handleQuery(w http.ResponseWriter, r *http.Request, q querier) {
	start := time.Now()
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	decoded := time.Now()
	if (req.Entity == "") == (len(req.Elements) == 0) {
		writeError(w, http.StatusBadRequest, "name the query with exactly one of entity or elements")
		return
	}
	if (req.Threshold == nil) == (req.TopK == 0) {
		writeError(w, http.StatusBadRequest, "select exactly one of threshold or topk")
		return
	}
	// The wrap middleware guaranteed the header; carrying the ID in the
	// context is what makes the router's node sub-requests traceable.
	rid := r.Header.Get(cluster.HeaderRequestID)
	ctx := cluster.WithRequestID(r.Context(), rid)
	var matches []vsmartjoin.Match
	var err error
	switch {
	case req.TopK < 0:
		writeError(w, http.StatusBadRequest, "topk must be positive")
		return
	case req.TopK > 0 && req.Entity != "":
		// QueryEntity has no top-k form; reject rather than guess.
		writeError(w, http.StatusBadRequest, "topk queries take elements, not an entity")
		return
	case req.TopK > 0:
		matches, err = q.QueryTopK(ctx, req.Elements, req.TopK)
	case req.Entity != "":
		matches, err = q.QueryEntity(ctx, req.Entity, *req.Threshold)
	default:
		matches, err = q.QueryThreshold(ctx, req.Elements, *req.Threshold)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	if matches == nil {
		matches = []vsmartjoin.Match{}
	}
	resp := map[string]any{"matches": matches}
	if req.Debug {
		queried := time.Now()
		resp["debug"] = queryDebug{
			RequestID: rid,
			DecodeNs:  decoded.Sub(start).Nanoseconds(),
			QueryNs:   queried.Sub(decoded).Nanoseconds(),
			TotalNs:   queried.Sub(start).Nanoseconds(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// knnQuerier is the kNN surface both backends share, mirroring querier.
type knnQuerier interface {
	QueryKNN(ctx context.Context, counts map[string]uint32, k int) ([]vsmartjoin.Neighbor, error)
	QueryKNNEntity(ctx context.Context, entity string, k int) ([]vsmartjoin.Neighbor, error)
}

type knnRequest struct {
	// At most one of Entity (an indexed entity name) or Elements (an
	// ad-hoc multiset) names the query. Unlike /query, both may be absent:
	// an empty multiset is a legal kNN query — every entity is then a
	// distance-1 neighbor and the answer is the k smallest names.
	Entity   string            `json:"entity"`
	Elements map[string]uint32 `json:"elements"`
	K        int               `json:"k"`
}

// handleKNN validates and dispatches a /knn body against either
// backend, with handleQuery's error mapping (400 for bad requests and
// unknown entities, 503 when the cluster cannot answer).
func handleKNN(w http.ResponseWriter, r *http.Request, q knnQuerier) {
	var req knnRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Entity != "" && len(req.Elements) > 0 {
		writeError(w, http.StatusBadRequest, "name the query with at most one of entity or elements")
		return
	}
	if req.K <= 0 {
		writeError(w, http.StatusBadRequest, "k must be positive")
		return
	}
	ctx := cluster.WithRequestID(r.Context(), r.Header.Get(cluster.HeaderRequestID))
	var neighbors []vsmartjoin.Neighbor
	var err error
	if req.Entity != "" {
		neighbors, err = q.QueryKNNEntity(ctx, req.Entity, req.K)
	} else {
		neighbors, err = q.QueryKNN(ctx, req.Elements, req.K)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	if neighbors == nil {
		neighbors = []vsmartjoin.Neighbor{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"neighbors": neighbors})
}

// snapshotBody enforces "optional, but well-formed if present" for the
// /snapshot endpoints.
func snapshotBody(w http.ResponseWriter, r *http.Request) bool {
	var req struct{}
	return r.ContentLength == 0 || decodeBody(w, r, &req)
}

// ---- node mode ----

type nodeServer struct {
	ix  *vsmartjoin.Index
	lim *limiter
}

// indexQuerier adapts Index to the shared querier surface (its
// QueryTopK cannot fail, the interface's can; the index is local, so
// the context's cancellation has nothing to reel in and only its trace
// values matter — which the handler reads itself).
type indexQuerier struct{ ix *vsmartjoin.Index }

func (q indexQuerier) QueryThreshold(ctx context.Context, counts map[string]uint32, t float64) ([]vsmartjoin.Match, error) {
	return q.ix.QueryThreshold(counts, t)
}

func (q indexQuerier) QueryTopK(ctx context.Context, counts map[string]uint32, k int) ([]vsmartjoin.Match, error) {
	return q.ix.QueryTopK(counts, k), nil
}

func (q indexQuerier) QueryEntity(ctx context.Context, entity string, t float64) ([]vsmartjoin.Match, error) {
	return q.ix.QueryEntity(entity, t)
}

// indexKNNQuerier adapts Index to the shared kNN surface, like
// indexQuerier (Index.QueryKNN cannot fail, the interface's can).
type indexKNNQuerier struct{ ix *vsmartjoin.Index }

func (q indexKNNQuerier) QueryKNN(ctx context.Context, counts map[string]uint32, k int) ([]vsmartjoin.Neighbor, error) {
	return q.ix.QueryKNN(counts, k), nil
}

func (q indexKNNQuerier) QueryKNNEntity(ctx context.Context, entity string, k int) ([]vsmartjoin.Neighbor, error) {
	return q.ix.QueryKNNEntity(entity, k)
}

// handleMetrics serves the node's Prometheus scrape: index size and
// funnel counters, cache traffic, and the latency histograms of every
// layer under this process (query, shard merge, WAL append/fsync).
func (s *nodeServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.ix.Stats()
	m := s.ix.Metrics()
	w.Header().Set("Content-Type", promContentType)
	p := promWriter{w}
	p.gauge("vsmart_entities", "Live indexed entities.", float64(st.Entities))
	p.gauge("vsmart_index_generation", "Highest write-ahead log generation across shards (0 = volatile).", float64(st.Generation))
	p.gauge("vsmart_index_shards", "Hash-partitioned shards in this index.", float64(st.Shards))
	p.counter("vsmart_adds_total", "Entity upserts applied.", float64(st.Adds))
	p.counter("vsmart_removes_total", "Entity removals applied.", float64(st.Removes))
	p.counter("vsmart_queries_total", "Queries answered by the inner index (cache hits excluded).", float64(st.Queries))
	p.counter("vsmart_cache_hits_total", "Result-cache hits.", float64(st.CacheHits))
	p.counter("vsmart_cache_misses_total", "Result-cache misses.", float64(st.CacheMisses))
	p.gauge("vsmart_cache_entries", "Cached query answers resident.", float64(st.CacheEntries))
	p.counter("vsmart_probes_total", "Posting-list probes.", float64(st.Probes))
	p.counter("vsmart_candidates_total", "Candidates surviving the probe.", float64(st.Candidates))
	p.counter("vsmart_length_pruned_total", "Candidates eliminated by length bounds.", float64(st.LengthPruned))
	p.counter("vsmart_verified_total", "Candidates fully verified.", float64(st.Verified))
	p.counter("vsmart_results_total", "Matches returned.", float64(st.Results))
	p.histogram("vsmart_query_latency_seconds", "Uncached query latency (probe, verify, resolve).", m.Query)
	p.histogram("vsmart_shard_merge_latency_seconds", "Cross-shard merge time of multi-shard fan-outs.", m.Merge)
	p.histogram("vsmart_wal_append_latency_seconds", "Write-ahead log append stalls.", m.WALAppend)
	p.histogram("vsmart_wal_fsync_latency_seconds", "Write-ahead log fsync stalls.", m.WALFsync)
	p.histogram("vsmart_wal_commit_wait_seconds", "Wait for the group commit covering an acknowledged mutation (DurabilitySync only).", m.WALCommitWait)
	p.counter("vsmart_wal_records_total", "Write-ahead log records appended across shards.", float64(m.WALRecords))
	p.counter("vsmart_wal_fsyncs_total", "Write-ahead log fsyncs issued across shards; the ratio to records is the amortized durability cost.", float64(m.WALFsyncs))
	p.gauge("vsmart_mutation_queue_depth", "AddAsync mutations queued behind the async appliers.", float64(st.MutationQueueDepth))
	p.admission(s.lim)
}

func (s *nodeServer) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req addRequest
	if !decodeBody(w, r, &req) || !validateAdd(w, req) {
		return
	}
	if err := s.ix.Add(req.Entity, req.Elements); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"entities": s.ix.Len()})
}

func (s *nodeServer) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Entity == "" {
		writeError(w, http.StatusBadRequest, "missing entity")
		return
	}
	removed, err := s.ix.Remove(req.Entity)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": removed, "entities": s.ix.Len()})
}

// handleSnapshot forces a snapshot + log truncation on a durable index;
// on a volatile one it reports 409 (there is nothing to snapshot to).
func (s *nodeServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !snapshotBody(w, r) {
		return
	}
	if err := s.ix.Snapshot(); err != nil {
		// No durability dir (or a closed index) is the caller's state
		// conflict; anything else is a real server-side persistence
		// failure and must not hide among the 4xx.
		status := http.StatusInternalServerError
		if errors.Is(err, vsmartjoin.ErrNotDurable) || errors.Is(err, vsmartjoin.ErrIndexClosed) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshot": true, "entities": s.ix.Len()})
}

// validateBulk checks every op of a bulk batch before anything is
// applied, so a malformed op cannot leave a half-applied 400. Shared
// by the node and router bulk endpoints.
func validateBulk(w http.ResponseWriter, req cluster.BulkRequest) bool {
	for i, op := range req.Ops {
		switch op.Op {
		case "add":
			if op.Entity == "" || !hasMass(op.Elements) {
				writeError(w, http.StatusBadRequest, "op %d: add needs an entity and nonzero elements", i)
				return false
			}
		case "remove":
			if op.Entity == "" {
				writeError(w, http.StatusBadRequest, "op %d: remove needs an entity", i)
				return false
			}
		default:
			writeError(w, http.StatusBadRequest, "op %d: unknown op %q", i, op.Op)
			return false
		}
	}
	return true
}

// handleBulk applies a batch of mutations in order — the sanctioned
// batched-ingest path (and the endpoint the router's anti-entropy pass
// re-drives missed writes through). The wire types live in
// internal/cluster (the sender), so the two sides share one schema.
// Consecutive same-kind ops are applied through Index.AddBatch /
// RemoveBatch, so an all-add ingest batch costs one WAL append and one
// lock acquisition per touched shard — and under DurabilitySync one
// group-committed fsync — instead of one per mutation. An internal
// failure mid-batch reports how many ops preceded the failing run
// (the failing run itself may be partially applied at shard
// granularity; re-driving the batch is safe, every op is an
// idempotent upsert or remove).
func (s *nodeServer) handleBulk(w http.ResponseWriter, r *http.Request) {
	var req cluster.BulkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !validateBulk(w, req) {
		return
	}
	applied := 0
	for lo := 0; lo < len(req.Ops); {
		hi := lo + 1
		for hi < len(req.Ops) && req.Ops[hi].Op == req.Ops[lo].Op {
			hi++
		}
		run := req.Ops[lo:hi]
		var err error
		if run[0].Op == "add" {
			entries := make([]vsmartjoin.BatchEntry, len(run))
			for i, op := range run {
				entries[i] = vsmartjoin.BatchEntry{Entity: op.Entity, Elements: op.Elements}
			}
			err = s.ix.AddBatch(entries)
		} else {
			names := make([]string, len(run))
			for i, op := range run {
				names[i] = op.Entity
			}
			_, err = s.ix.RemoveBatch(names)
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "after %d applied ops: %v", applied, err)
			return
		}
		applied += len(run)
		lo = hi
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": applied, "entities": s.ix.Len()})
}

// handleEntity reports an indexed entity's current element
// multiplicities — what the router needs to scatter an entity-relative
// query to the partitions that do NOT hold the entity.
func (s *nodeServer) handleEntity(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing name parameter")
		return
	}
	counts, ok := s.ix.Elements(name)
	if !ok {
		writeError(w, http.StatusNotFound, "entity %q not indexed", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"entity": name, "elements": counts})
}

// handleReadyz is the node readiness probe: 200 once serving (a node
// that finished recovery is ready), with the counters a router or load
// balancer compares across replicas to detect a stale one.
func (s *nodeServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.ix.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":      true,
		"measure":    st.Measure,
		"generation": st.Generation,
		"entities":   st.Entities,
		"mutations":  st.Adds + st.Removes,
		"shards":     st.Shards,
	})
}

func hasMass(elements map[string]uint32) bool {
	for _, c := range elements {
		if c > 0 {
			return true
		}
	}
	return false
}

// ---- router mode ----

type routerServer struct {
	c   *vsmartjoin.Cluster
	lim *limiter
}

// clusterQuerier adapts the cluster client's context-taking variants
// to the shared querier surface.
type clusterQuerier struct{ c *vsmartjoin.Cluster }

func (q clusterQuerier) QueryThreshold(ctx context.Context, counts map[string]uint32, t float64) ([]vsmartjoin.Match, error) {
	return q.c.QueryThresholdContext(ctx, counts, t)
}

func (q clusterQuerier) QueryTopK(ctx context.Context, counts map[string]uint32, k int) ([]vsmartjoin.Match, error) {
	return q.c.QueryTopKContext(ctx, counts, k)
}

func (q clusterQuerier) QueryEntity(ctx context.Context, entity string, t float64) ([]vsmartjoin.Match, error) {
	return q.c.QueryEntityContext(ctx, entity, t)
}

// clusterKNNQuerier adapts the cluster client's context-taking kNN
// variants to the shared surface.
type clusterKNNQuerier struct{ c *vsmartjoin.Cluster }

func (q clusterKNNQuerier) QueryKNN(ctx context.Context, counts map[string]uint32, k int) ([]vsmartjoin.Neighbor, error) {
	return q.c.QueryKNNContext(ctx, counts, k)
}

func (q clusterKNNQuerier) QueryKNNEntity(ctx context.Context, entity string, k int) ([]vsmartjoin.Neighbor, error) {
	return q.c.QueryKNNEntityContext(ctx, entity, k)
}

// traceCtx is the write-path counterpart of handleQuery's context
// plumbing: node sub-requests carry the router-assigned request ID.
func traceCtx(r *http.Request) context.Context {
	return cluster.WithRequestID(r.Context(), r.Header.Get(cluster.HeaderRequestID))
}

// handleMetrics serves the router's Prometheus scrape: scatter-gather
// and quorum-write latency, hedge/failover/repair counters, and the
// per-node health table.
func (s *routerServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.c.Stats()
	m := s.c.Metrics()
	w.Header().Set("Content-Type", promContentType)
	p := promWriter{w}
	p.gauge("vsmart_cluster_partitions", "Partitions in the cluster topology.", float64(st.Partitions))
	p.counter("vsmart_cluster_queries_total", "Scatter-gather queries routed.", float64(st.Queries))
	p.counter("vsmart_cluster_hedges_total", "Hedged query attempts fired.", float64(st.Hedges))
	p.counter("vsmart_cluster_hedge_wins_total", "Hedged attempts whose answer won the race.", float64(st.HedgeWins))
	p.counter("vsmart_cluster_failovers_total", "Query attempts failed over to another replica.", float64(st.Failovers))
	p.counter("vsmart_cluster_write_fails_total", "Writes that missed their quorum.", float64(st.WriteFails))
	p.counter("vsmart_cluster_repairs_total", "Missed writes re-driven by anti-entropy.", float64(st.Repairs))
	p.gauge("vsmart_cluster_repair_backlog", "Missed writes currently queued for anti-entropy.", float64(st.RepairBacklog))
	p.histogram("vsmart_cluster_query_latency_seconds", "Scatter-gather query latency end to end.", m.Query)
	p.histogram("vsmart_cluster_write_latency_seconds", "Quorum write latency to decision.", m.Write)
	p.header("vsmart_cluster_node_healthy", "gauge", "Per-node health as last observed by this router (1 healthy, 0 not).")
	for _, n := range st.Nodes {
		v := 0.0
		if n.Healthy {
			v = 1
		}
		p.labeled("vsmart_cluster_node_healthy", [][2]string{{"node", n.Addr}, {"partition", fmt.Sprint(n.Partition)}}, v)
	}
	p.header("vsmart_cluster_node_pending_repair", "gauge", "Missed writes queued for this node.")
	for _, n := range st.Nodes {
		p.labeled("vsmart_cluster_node_pending_repair", [][2]string{{"node", n.Addr}, {"partition", fmt.Sprint(n.Partition)}}, float64(n.PendingRepair))
	}
	p.admission(s.lim)
}

func (s *routerServer) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req addRequest
	if !decodeBody(w, r, &req) || !validateAdd(w, req) {
		return
	}
	if err := s.c.AddContext(traceCtx(r), req.Entity, req.Elements); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *routerServer) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Entity == "" {
		writeError(w, http.StatusBadRequest, "missing entity")
		return
	}
	removed, err := s.c.RemoveContext(traceCtx(r), req.Entity)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": removed})
}

// handleBulk is the router's batched-ingest endpoint: the same wire
// body a node's /bulk takes, driven through the cluster's partition-
// grouped quorum writes (Cluster.Bulk) — one batched request per
// touched partition's replicas instead of one quorum round per
// mutation.
func (s *routerServer) handleBulk(w http.ResponseWriter, r *http.Request) {
	var req cluster.BulkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !validateBulk(w, req) {
		return
	}
	muts := make([]vsmartjoin.BulkMutation, len(req.Ops))
	for i, op := range req.Ops {
		muts[i] = vsmartjoin.BulkMutation{Remove: op.Op == "remove", Entity: op.Entity, Elements: op.Elements}
	}
	if err := s.c.BulkContext(traceCtx(r), muts); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": len(req.Ops)})
}

func (s *routerServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !snapshotBody(w, r) {
		return
	}
	if err := s.c.Snapshot(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshot": true})
}

// handleReadyz is the router readiness probe: 200 only while every
// partition has at least one healthy replica (queries exact or
// nothing), with write readiness — a healthy majority everywhere —
// reported alongside.
func (s *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	queries, writes := s.c.Ready()
	status := http.StatusOK
	if !queries {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":       queries,
		"write_ready": writes,
		"partitions":  s.c.Stats().Partitions,
	})
}
