package main

// The traced replay: the start of the workload's request stream (same
// seed) is replayed once per layer boundary, one layer at a time, in
// one process on one connection. Each call is a span; spans of one
// request share its request ID, and a layer's span names the span of
// the layer above as its parent. A layer's self time is its time minus
// the layer beneath it for the same request.
//
// serve-read replays reads through the daemon (loopback), the node
// handler in process, the public Index, the shard fan-out and the
// per-shard inner indexes. cluster-mixed replays reads and writes
// through the router (loopback), the public Cluster in process and the
// nodes directly, and writes through the inner index and a volatile and
// a durable public Index.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/httpd"
	"vsmartjoin/internal/index"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/planner"
	"vsmartjoin/internal/shard"
	"vsmartjoin/internal/similarity"
)

const (
	replayServeOps   = 3000
	replayClusterOps = 1000
	innerShards      = 2
)

// timed runs fn and returns its duration. With rec set it records a
// span in line (even requests) or after the call (odd requests), so the
// cost of in-line recording shows as trace.overhead_frac.
func timed(rec *Recorder, layer, req string, parent int, inline bool, fn func()) (time.Duration, int) {
	if inline {
		id := rec.Start(layer, req, parent)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		rec.End(id)
		return d, id
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	return d, rec.Add(layer, req, parent, t0, d)
}

// mallocs reads the process's allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// p50us is the median of durations in microseconds.
func p50us(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return median(xs)
}

// selfP50us is the median per-request difference outer − inner, in µs.
func selfP50us(outer, inner []time.Duration) float64 {
	xs := make([]float64, 0, len(outer))
	for i := range outer {
		if i < len(inner) && inner[i] > 0 {
			xs = append(xs, float64(outer[i]-inner[i])/1e3)
		}
	}
	return median(xs)
}

// innerStack is the program's inner index layers built directly: the
// shard set under the public Index, with the same planner, and the
// element dictionary that maps query names to IDs.
type innerStack struct {
	dict *multiset.Dict
	set  *shard.Set
	ids  map[string]multiset.ID
	next multiset.ID
}

func newInnerStack(es []Entity) *innerStack {
	ruz, _ := similarity.ByName("ruzicka")
	s := &innerStack{dict: multiset.NewDict(), set: shard.New(ruz, innerShards), ids: make(map[string]multiset.ID), next: 1}
	s.set.SetPlanner(planner.Heuristic{})
	for _, e := range es {
		s.set.Add(s.multiset(e.Name, e.Counts))
	}
	return s
}

// multiset interns an entity, assigning IDs in arrival order as the
// public Index does.
func (s *innerStack) multiset(name string, counts map[string]uint32) multiset.Multiset {
	id, ok := s.ids[name]
	if !ok {
		id = s.next
		s.next++
		s.ids[name] = id
	}
	entries := make([]multiset.Entry, 0, len(counts))
	for _, ck := range sortedKeys(counts) {
		entries = append(entries, multiset.Entry{Elem: s.dict.Intern(ck), Count: counts[ck]})
	}
	return multiset.New(id, entries)
}

// query maps query names into the alphabet; unknown elements count
// toward the query's cardinality only, as in the public Index.
func (s *innerStack) query(counts map[string]uint32) index.Query {
	var q index.Query
	var entries []multiset.Entry
	for ck, c := range counts {
		if id, ok := s.dict.Lookup(ck); ok {
			entries = append(entries, multiset.Entry{Elem: id, Count: c})
		} else {
			q.Extra.AccumulateUni(c)
		}
	}
	q.Set = multiset.New(0, entries)
	return q
}

func datasetOf(es []Entity) *vsmartjoin.Dataset {
	d := vsmartjoin.NewDataset()
	for _, e := range es {
		d.Add(e.Name, e.Counts)
	}
	return d
}

// openBuilt bulk-builds the trace into dir and opens it, as the daemon's
// -load path does; it returns the index and the build time.
func openBuilt(d *vsmartjoin.Dataset, dir string, snapshotEvery int) (*vsmartjoin.Index, float64, error) {
	start := time.Now()
	if _, err := vsmartjoin.BuildIndexFiles(d, vsmartjoin.IndexOptions{Shards: innerShards, Dir: dir}); err != nil {
		return nil, 0, err
	}
	built := time.Since(start).Seconds()
	ix, err := vsmartjoin.OpenIndex(vsmartjoin.IndexOptions{Dir: dir, SnapshotEvery: snapshotEvery})
	return ix, built, err
}

func replayLayers(w *Workload, env *Env, dep *Deployment, tr *Trace, model *Model, expect *Expect, t *Tally, rec *Recorder) (Metrics, error) {
	m := Metrics{}
	dir := filepath.Join(env.Work, "layers")
	d := datasetOf(tr.Entities)
	stream := NewStream(tr, env.Seed, w.WritePct, conns)
	var err error
	if w.Cluster {
		err = replayCluster(m, dep, tr, stream.Take(replayClusterOps), model, d, dir, t, rec)
	} else {
		err = replayServe(m, dep, tr, stream.Take(replayServeOps), expect, d, dir, t, rec)
	}
	return m, err
}

func replayServe(m Metrics, dep *Deployment, tr *Trace, ops []*Op, expect *Expect, d *vsmartjoin.Dataset, dir string, t *Tally, rec *Recorder) error {
	ixAPI, bulk, err := openBuilt(d, filepath.Join(dir, "api"), 0)
	if err != nil {
		return err
	}
	defer ixAPI.Close()
	m.Set("build.bulk_s", bulk, "s")
	ixHTTP, _, err := openBuilt(d, filepath.Join(dir, "httpd"), 0)
	if err != nil {
		return err
	}
	defer ixHTTP.Close()
	handler := httpd.NewNode(ixHTTP, httpd.Options{MaxInFlight: -1})
	inner := newInnerStack(tr.Entities)
	queries := make(map[int]index.Query)
	for _, op := range ops {
		if _, ok := queries[op.Query]; !ok {
			queries[op.Query] = inner.query(expect.pool[op.Query].Counts)
		}
	}
	n := len(ops)
	reqs := make([]string, n)
	for i, op := range ops {
		reqs[i] = fmt.Sprintf("r%d", op.Seq)
	}
	parent := make([]int, n)
	runtime.GC()

	// Daemon over loopback; even requests record their span in line.
	client := newClient(reqTimeout)
	daemonT := make([]time.Duration, n)
	var inlineT, afterT []time.Duration
	for i, op := range ops {
		var status int
		var body []byte
		var perr error
		daemonT[i], parent[i] = timed(rec, "net.daemon", reqs[i], 0, i%2 == 0, func() {
			status, body, perr = post(context.Background(), client, "http://"+dep.Front.Addr+op.Path, op.Body)
		})
		if i%2 == 0 {
			inlineT = append(inlineT, daemonT[i])
		} else {
			afterT = append(afterT, daemonT[i])
		}
		ok := perr == nil && status == http.StatusOK
		if ok {
			ok, _ = expect.Check(op.Query, body)
		}
		t.Add(ok)
	}
	m.Set("trace.overhead_frac", ratio(p50us(inlineT), p50us(afterT))-1, "ratio")

	// The node handler in process; request construction is outside the
	// timed call, and its allocations are measured alone and subtracted.
	build := func(op *Op) (*http.Request, *httptest.ResponseRecorder) {
		return httptest.NewRequest(http.MethodPost, op.Path, bytes.NewReader(op.Body)), httptest.NewRecorder()
	}
	a0 := mallocs()
	for _, op := range ops {
		build(op)
	}
	harness := mallocs() - a0
	httpT := make([]time.Duration, n)
	httpSpan := make([]int, n)
	var respBytes int
	a0 = mallocs()
	for i, op := range ops {
		req, rr := build(op)
		httpT[i], httpSpan[i] = timed(rec, "httpd.handler", reqs[i], parent[i], true, func() { handler.ServeHTTP(rr, req) })
		respBytes += rr.Body.Len()
	}
	httpAllocs := float64(mallocs()-a0-harness) / float64(n)

	// The public Index. Its result cache answers most queries without
	// the layers beneath, so its self time is taken over the misses,
	// told apart by the cache-miss counter (whose reading allocates;
	// that is measured alone and subtracted).
	a0 = mallocs()
	for range ops {
		ixAPI.Stats()
	}
	harness = mallocs() - a0
	apiT := make([]time.Duration, n)
	apiSpan := make([]int, n)
	var missAPI, missShard []time.Duration
	missed := make([]bool, n)
	misses := ixAPI.Stats().CacheMisses
	a0 = mallocs()
	for i, op := range ops {
		counts := expect.pool[op.Query].Counts
		apiT[i], apiSpan[i] = timed(rec, "api.Index", reqs[i], httpSpan[i], true, func() {
			switch op.Kind {
			case OpThreshold:
				_, _ = ixAPI.QueryThreshold(counts, queryThreshold) // threshold is valid
			case OpTopK:
				ixAPI.QueryTopK(counts, queryK)
			default:
				ixAPI.QueryKNN(counts, queryK)
			}
		})
		now := ixAPI.Stats().CacheMisses
		missed[i], misses = now > misses, now
	}
	apiAllocs := float64(mallocs()-a0-harness) / float64(n)

	// The shard fan-out and, beneath it, each shard's inner index called
	// one after another. Both take k+1, as the public Index asks them.
	var mbuf []index.Match
	var nbuf []index.Neighbor
	call := func(op *Op, thr func(index.Query, float64, []index.Match) []index.Match,
		topk func(index.Query, int, []index.Match) []index.Match,
		knn func(index.Query, int, []index.Neighbor) []index.Neighbor) {
		q := queries[op.Query]
		switch op.Kind {
		case OpThreshold:
			mbuf = thr(q, queryThreshold, mbuf[:0])
		case OpTopK:
			mbuf = topk(q, queryK+1, mbuf[:0])
		default:
			nbuf = knn(q, queryK+1, nbuf[:0])
		}
	}
	shardT := make([]time.Duration, n)
	shardSpan := make([]int, n)
	a0 = mallocs()
	for i, op := range ops {
		shardT[i], shardSpan[i] = timed(rec, "shard.Set", reqs[i], apiSpan[i], true, func() {
			call(op, inner.set.QueryThresholdInto, inner.set.QueryTopKInto, inner.set.QueryKNNInto)
		})
	}
	shardAllocs := float64(mallocs()-a0) / float64(n)

	indexT := make([]time.Duration, n)
	before := innerStats(inner.set)
	a0 = mallocs()
	for i, op := range ops {
		for s := 0; s < innerShards; s++ {
			ix := inner.set.At(s)
			dt, _ := timed(rec, "index.Index", reqs[i], shardSpan[i], true, func() {
				call(op, ix.QueryThresholdInto, ix.QueryTopKInto, ix.QueryKNNInto)
			})
			indexT[i] += dt
		}
	}
	indexAllocs := float64(mallocs()-a0) / float64(n)
	after := innerStats(inner.set)

	fn := float64(n)
	m.SetN("index.query_p50_us", p50us(indexT), "us", n)
	m.Set("index.probes_per_query", float64(after.Probes-before.Probes)/fn, "count")
	m.Set("index.candidates_per_query", float64(after.Candidates-before.Candidates)/fn, "count")
	m.Set("index.verified_per_query", float64(after.Verified-before.Verified)/fn, "count")
	m.Set("index.results_per_verified", ratio(float64(after.Results-before.Results), float64(after.Verified-before.Verified)), "ratio")
	m.Set("index.allocs_per_query", indexAllocs, "count")
	m.SetN("shard.query_p50_us", p50us(shardT), "us", n)
	m.SetN("shard.self_p50_us", selfP50us(shardT, indexT), "us", n)
	m.Set("shard.allocs_per_query", shardAllocs, "count")
	m.SetN("api.query_p50_us", p50us(apiT), "us", n)
	for i := range ops {
		if missed[i] {
			missAPI, missShard = append(missAPI, apiT[i]), append(missShard, shardT[i])
		}
	}
	m.SetN("api.self_p50_us", selfP50us(missAPI, missShard), "us", len(missAPI))
	m.Set("api.allocs_per_query", apiAllocs, "count")
	m.SetN("httpd.handler_p50_us", p50us(httpT), "us", n)
	m.SetN("httpd.self_p50_us", selfP50us(httpT, apiT), "us", n)
	m.Set("httpd.resp_bytes", float64(respBytes)/fn, "B")
	m.Set("httpd.allocs_per_query", httpAllocs, "count")
	m.SetN("net.self_p50_us", selfP50us(daemonT, httpT), "us", n)
	return nil
}

// innerStats sums the per-shard inner index counters.
func innerStats(s *shard.Set) index.Stats {
	var out index.Stats
	for i := 0; i < s.Shards(); i++ {
		st := s.At(i).Stats()
		out.Probes += st.Probes
		out.Candidates += st.Candidates
		out.Verified += st.Verified
		out.Results += st.Results
	}
	return out
}

func replayCluster(m Metrics, dep *Deployment, tr *Trace, ops []*Op, model *Model, d *vsmartjoin.Dataset, dir string, t *Tally, rec *Recorder) error {
	var topo [][]string
	for _, row := range dep.Nodes {
		var addrs []string
		for _, nd := range row {
			addrs = append(addrs, nd.Addr)
		}
		topo = append(topo, addrs)
	}
	cl, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{Nodes: topo, HealthEvery: -1, RepairEvery: -1})
	if err != nil {
		return err
	}
	defer cl.Close()
	n := len(ops)
	reqs := make([]string, n)
	for i, op := range ops {
		reqs[i] = fmt.Sprintf("r%d", op.Seq)
	}
	runtime.GC()

	// The router over loopback; every write lands in the model here.
	client := newClient(reqTimeout)
	routerT := make([]time.Duration, n)
	routerSpan := make([]int, n)
	var inlineT, afterT []time.Duration
	for i, op := range ops {
		var status int
		var perr error
		routerT[i], routerSpan[i] = timed(rec, "router", reqs[i], 0, i%2 == 0, func() {
			status, _, perr = post(context.Background(), client, "http://"+dep.Front.Addr+op.Path, op.Body)
		})
		if !op.Kind.IsWrite() {
			if i%2 == 0 {
				inlineT = append(inlineT, routerT[i])
			} else {
				afterT = append(afterT, routerT[i])
			}
		}
		ok := perr == nil && status == http.StatusOK
		if op.Kind.IsWrite() {
			model.Apply(op, ok)
		}
		t.Add(ok)
	}
	m.Set("trace.overhead_frac", ratio(p50us(inlineT), p50us(afterT))-1, "ratio")

	// The public Cluster in process, against the same nodes.
	clusterT := make([]time.Duration, n)
	clusterSpan := make([]int, n)
	for i, op := range ops {
		var cerr error
		clusterT[i], clusterSpan[i] = timed(rec, "cluster.Cluster", reqs[i], routerSpan[i], true, func() {
			switch op.Kind {
			case OpThreshold:
				_, cerr = cl.QueryThreshold(op.Counts, queryThreshold)
			case OpTopK:
				_, cerr = cl.QueryTopK(op.Counts, queryK)
			case OpKNN:
				_, cerr = cl.QueryKNN(op.Counts, queryK)
			case OpAdd:
				cerr = cl.Add(op.Entity, op.Counts)
			case OpRemove:
				_, cerr = cl.Remove(op.Entity)
			}
		})
		t.Add(cerr == nil)
	}

	// The nodes directly: a read asks one replica of every partition in
	// turn (the slowest bounds the scatter); a write goes to every
	// replica of its partition (the second fastest is the quorum ack).
	direct := make([]time.Duration, n)
	for i, op := range ops {
		var rtts []time.Duration
		var targets []*Daemon
		if op.Kind.IsWrite() {
			targets = dep.Nodes[vsmartjoin.PartitionOfEntity(op.Entity, len(dep.Nodes))]
		} else {
			for _, row := range dep.Nodes {
				targets = append(targets, row[0])
			}
		}
		for _, nd := range targets {
			var status int
			var perr error
			dt, _ := timed(rec, "node", reqs[i], clusterSpan[i], true, func() {
				status, _, perr = post(context.Background(), client, "http://"+nd.Addr+op.Path, op.Body)
			})
			t.Add(perr == nil && status == http.StatusOK)
			rtts = append(rtts, dt)
		}
		sort.Slice(rtts, func(a, b int) bool { return rtts[a] < rtts[b] })
		if op.Kind.IsWrite() {
			direct[i] = rtts[min(1, len(rtts)-1)]
		} else {
			direct[i] = rtts[len(rtts)-1]
		}
	}

	// Writes in process: the inner index, a volatile public Index and a
	// durable one (default OS durability, no automatic snapshots, so the
	// log keeps every record for the bytes-per-user-byte count).
	inner := newInnerStack(tr.Entities)
	vol, err := vsmartjoin.BuildIndex(d, vsmartjoin.IndexOptions{Shards: innerShards})
	if err != nil {
		return err
	}
	defer vol.Close()
	dur, bulk, err := openBuilt(d, filepath.Join(dir, "durable"), -1)
	if err != nil {
		return err
	}
	defer dur.Close()
	m.Set("build.bulk_s", bulk, "s")
	walBefore := walBytes(filepath.Join(dir, "durable"))
	var indexAdd, volAdd, durAdd []time.Duration
	var user int
	for i, op := range ops {
		if !op.Kind.IsWrite() {
			continue
		}
		if op.Kind == OpRemove {
			id := inner.ids[op.Entity]
			timed(rec, "index.Index", reqs[i], clusterSpan[i], true, func() { inner.set.Remove(id) })
			_, verr := vol.Remove(op.Entity)
			_, derr := dur.Remove(op.Entity)
			t.Add(verr == nil && derr == nil)
			user += len(op.Entity)
			continue
		}
		ms := inner.multiset(op.Entity, op.Counts)
		si := shard.ShardOf(ms.ID, innerShards)
		dt, _ := timed(rec, "index.Index", reqs[i], clusterSpan[i], true, func() { inner.set.At(si).Add(ms) })
		indexAdd = append(indexAdd, dt)
		var verr, derr error
		dt, _ = timed(rec, "api.Index", reqs[i], clusterSpan[i], true, func() { verr = vol.Add(op.Entity, op.Counts) })
		volAdd = append(volAdd, dt)
		dt, _ = timed(rec, "wal.Index", reqs[i], clusterSpan[i], true, func() { derr = dur.Add(op.Entity, op.Counts) })
		durAdd = append(durAdd, dt)
		t.Add(verr == nil && derr == nil)
		user += len(op.Entity)
		for ck := range op.Counts {
			user += len(ck) + 4
		}
	}
	walAfter := walBytes(filepath.Join(dir, "durable"))

	var readsC, readsD, writesC, writesD, routerR, clusterR []time.Duration
	for i, op := range ops {
		if op.Kind.IsWrite() {
			writesC, writesD = append(writesC, clusterT[i]), append(writesD, direct[i])
		} else {
			readsC, readsD = append(readsC, clusterT[i]), append(readsD, direct[i])
			routerR, clusterR = append(routerR, routerT[i]), append(clusterR, clusterT[i])
		}
	}
	m.SetN("cluster.query_p50_us", p50us(readsC), "us", len(readsC))
	m.SetN("cluster.self_p50_us", selfP50us(readsC, readsD), "us", len(readsC))
	m.SetN("cluster.add_p50_us", p50us(writesC), "us", len(writesC))
	m.SetN("cluster.add_self_p50_us", selfP50us(writesC, writesD), "us", len(writesC))
	m.SetN("router.self_p50_us", selfP50us(routerR, clusterR), "us", len(routerR))
	m.SetN("index.add_p50_us", p50us(indexAdd), "us", len(indexAdd))
	m.SetN("api.add_p50_us", p50us(volAdd), "us", len(volAdd))
	m.SetN("wal.add_self_p50_us", selfP50us(durAdd, volAdd), "us", len(durAdd))
	m.Set("wal.bytes_per_user_byte", ratio(float64(walAfter-walBefore), float64(user)), "ratio")
	return nil
}

// walBytes sums the sizes of every write-ahead log file under dir.
func walBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(info.Name(), "wal-") {
			n += info.Size()
		}
		return nil
	})
	return n
}
