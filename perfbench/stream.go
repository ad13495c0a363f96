package main

// The request stream of the serving workloads: a query pool of
// perturbed trace IPs, read zipf-skewed so both result-cache hits and
// misses occur, and (for cluster-mixed) single-entity writes over
// zipf-hot entities.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
)

// OpKind names an operation.
type OpKind int

const (
	OpThreshold OpKind = iota
	OpTopK
	OpKNN
	OpAdd
	OpRemove
)

var opNames = [...]string{"threshold", "topk", "knn", "add", "remove"}

func (k OpKind) String() string { return opNames[k] }

// IsWrite reports whether the operation mutates.
func (k OpKind) IsWrite() bool { return k == OpAdd || k == OpRemove }

const (
	queryThreshold = 0.5
	queryK         = 10
	// poolSize is the number of distinct queries, eight times the
	// program's default 1024-entry result cache.
	poolSize = 8192
	zipfS    = 1.1
)

// Query is one pool entry.
type Query struct {
	Kind   OpKind
	Counts map[string]uint32
	Body   []byte
}

// Op is one request.
type Op struct {
	Seq    int
	Kind   OpKind
	Query  int // pool index, for reads
	Entity string
	Counts map[string]uint32 // the query, or the added multiset
	Conn   int
	Path   string
	Body   []byte
}

// Stream draws the operations of a run from its seed.
type Stream struct {
	Pool     []Query
	trace    *Trace
	rng      *rand.Rand
	reads    *rand.Zipf
	writes   *rand.Zipf
	hot      []int // trace indices in write-popularity order
	writePct float64
	conns    int
	seq      int
	rev      map[string]int // per-entity add counter, for fresh add bodies
}

// NewStream builds the query pool and the op generator. writePct is the
// share of writes (0 for read-only).
func NewStream(tr *Trace, seed int64, writePct float64, conns int) *Stream {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	s := &Stream{trace: tr, rng: rng, writePct: writePct, conns: conns, rev: make(map[string]int)}
	// Popularity rank → entity. A big proxy costs far more per request
	// than any other IP, so where it lands in the zipf order would decide
	// a run's figures; big proxies therefore sit at fixed ranks and the
	// seed shuffles only the rest. The query kind follows the rank too.
	var big, rest []int
	for i, e := range tr.Entities {
		if len(e.Counts) >= bigProxyCookies {
			big = append(big, i)
		} else {
			rest = append(rest, i)
		}
	}
	ranked := func() []int {
		order := append([]int(nil), rest...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for k, b := range big {
			at := min(bigRanks[k%len(bigRanks)]+k/len(bigRanks), len(order))
			order = append(order[:at], append([]int{b}, order[at:]...)...)
		}
		return order
	}
	kinds := []OpKind{OpThreshold, OpTopK, OpKNN}
	queried := ranked()
	for i := 0; i < poolSize; i++ {
		e := tr.Entities[queried[i%len(queried)]]
		q := Query{Kind: kinds[i%3], Counts: perturb(rng, e.Counts, i)}
		q.Body = queryBody(q)
		s.Pool = append(s.Pool, q)
	}
	s.reads = rand.NewZipf(rng, zipfS, 1, poolSize-1)
	s.hot = ranked()
	s.writes = rand.NewZipf(rng, zipfS, 1, uint64(len(tr.Entities)-1))
	return s
}

// bigProxyCookies tells a big proxy from every other IP; bigRanks are
// the popularity ranks big proxies take in the query pool and the write
// order.
const bigProxyCookies = 1000

var bigRanks = []int{300, 1500, 4000, 7000}

// perturb copies an IP's cookies with one change: a cookie dropped, a
// count bumped, or an unseen cookie added.
func perturb(rng *rand.Rand, counts map[string]uint32, salt int) map[string]uint32 {
	out := make(map[string]uint32, len(counts)+1)
	for k, v := range counts {
		out[k] = v
	}
	keys := sortedKeys(counts)
	switch rng.Intn(3) {
	case 0:
		if len(keys) > 1 {
			delete(out, keys[rng.Intn(len(keys))])
			break
		}
		fallthrough
	case 1:
		out[keys[rng.Intn(len(keys))]]++
	default:
		out[fmt.Sprintf("ck-new-%d", salt)] = 1 + uint32(rng.Intn(3))
	}
	return out
}

func queryBody(q Query) []byte {
	var v any
	switch q.Kind {
	case OpThreshold:
		v = map[string]any{"elements": q.Counts, "threshold": queryThreshold}
	case OpTopK:
		v = map[string]any{"elements": q.Counts, "topk": queryK}
	default:
		v = map[string]any{"elements": q.Counts, "k": queryK}
	}
	b, _ := json.Marshal(v) // maps of strings and numbers always marshal
	return b
}

func queryPath(k OpKind) string {
	if k == OpKNN {
		return "/knn"
	}
	return "/query"
}

// Next draws the next operation.
func (s *Stream) Next() *Op {
	s.seq++
	op := &Op{Seq: s.seq}
	if s.writePct > 0 && s.rng.Float64() < s.writePct {
		e := s.trace.Entities[s.hot[s.writes.Uint64()]]
		op.Entity = e.Name
		op.Conn = connOf(e.Name, s.conns)
		if s.rng.Float64() < 0.1 {
			op.Kind, op.Path = OpRemove, "/remove"
			op.Body, _ = json.Marshal(map[string]string{"entity": e.Name})
			return op
		}
		s.rev[e.Name]++
		op.Kind, op.Path = OpAdd, "/add"
		op.Counts = perturb(s.rng, e.Counts, s.rev[e.Name])
		op.Body, _ = json.Marshal(map[string]any{"entity": e.Name, "elements": op.Counts})
		return op
	}
	op.Query = int(s.reads.Uint64())
	q := s.Pool[op.Query]
	op.Kind, op.Path, op.Body, op.Counts = q.Kind, queryPath(q.Kind), q.Body, q.Counts
	op.Conn = s.seq % s.conns
	return op
}

// Take draws n operations.
func (s *Stream) Take(n int) []*Op {
	out := make([]*Op, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// connOf pins every write to one entity on one connection, so writes to
// an entity are sent, and acknowledged, in order.
func connOf(entity string, conns int) int {
	h := fnv.New32a()
	h.Write([]byte(entity))
	return int(h.Sum32() % uint32(conns))
}

// Reply is a decoded /query or /knn response.
type Reply struct {
	Matches   []Match    `json:"matches"`
	Neighbors []Neighbor `json:"neighbors"`
}

// Expected answers for pool queries, computed on demand.
type Expect struct {
	orc   *Oracle
	cache map[int]Reply
	pool  []Query
}

func NewExpect(orc *Oracle, pool []Query) *Expect {
	return &Expect{orc: orc, cache: make(map[int]Reply), pool: pool}
}

// For returns the oracle's answer to pool query i.
func (x *Expect) For(i int) Reply {
	if r, ok := x.cache[i]; ok {
		return r
	}
	q := x.pool[i]
	var r Reply
	switch q.Kind {
	case OpThreshold:
		r.Matches = x.orc.Threshold(q.Counts, queryThreshold, "")
	case OpTopK:
		r.Matches = x.orc.TopK(q.Counts, queryK)
	default:
		r.Neighbors = x.orc.KNN(q.Counts, queryK, "")
	}
	x.cache[i] = r
	return r
}

// Check compares a response body with the expected answer of pool
// query i; padded reports a kNN answer holding distance-1 entries.
func (x *Expect) Check(i int, body []byte) (ok, padded bool) {
	var got Reply
	if err := json.Unmarshal(body, &got); err != nil {
		return false, false
	}
	want := x.For(i)
	if x.pool[i].Kind == OpKNN {
		n := len(got.Neighbors)
		padded = n > 0 && got.Neighbors[n-1].Distance == 1
		return SameNeighbors(got.Neighbors, want.Neighbors), padded
	}
	return SameMatches(got.Matches, want.Matches), false
}

// Padded reports whether a kNN reply holds distance-1 entries, without
// checking it (under writes the expected answer moves).
func Padded(body []byte) bool {
	var got Reply
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	n := len(got.Neighbors)
	return n > 0 && got.Neighbors[n-1].Distance == 1
}

// entitiesOf returns a copy of a state map as a sorted entity slice.
func entitiesOf(state map[string]map[string]uint32) []Entity {
	out := make([]Entity, 0, len(state))
	for n, c := range state {
		out = append(out, Entity{Name: n, Counts: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
