package vsmartjoin

// The kNN differential harness, mirroring api_diff_test.go for the
// distance-ordered query surface: online QueryKNN/QueryKNNEntity and
// batch AllKNN must reproduce a brute-force oracle built on the public
// Similarity function — for every measure family, for k below, at, and
// beyond the corpus size, across shard counts, over corpora from tiny
// to stop-word-dominated, and after churn. Shard counts are
// additionally held byte-identical to each other: the canonical
// (distance ascending, name ascending) order may not depend on the
// deployment shape. Batch AllKNN lists are also gated byte-identical
// against online QueryKNNEntity — the two pipelines answer the same
// question and must agree to the last bit.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

var knnDiffMeasures = []string{"ruzicka", "jaccard", "dice", "cosine"}

var knnDiffKs = []int{1, 5, 50}

// knnEntities builds the differential corpus: clustered random
// multisets (near-duplicates at every distance), exact duplicates
// (maximal distance ties — the name-order tie-break stress), and a few
// entities with unique elements (distance-1 pad candidates).
func knnEntities(rng *rand.Rand, n int) map[string]map[string]uint32 {
	out := randomEntities(rng, n, 26, 7, 4)
	for i := 0; i < 5; i++ {
		out[fmt.Sprintf("twin-%d", i)] = map[string]uint32{"e1": 3, "e2": 1, "e7": 2}
	}
	out["hermit-a"] = map[string]uint32{"only-a": 4}
	out["hermit-b"] = map[string]uint32{"only-b": 1}
	return out
}

// oracleKNN brute-forces the expected neighbor list: distance
// 1 − Similarity to every entity except self, sorted distance
// ascending with name-ascending ties, truncated to k.
func oracleKNN(t *testing.T, entities map[string]map[string]uint32, measure string, q map[string]uint32, self string, k int) []Neighbor {
	t.Helper()
	out := make([]Neighbor, 0, len(entities))
	for name, counts := range entities {
		if name == self {
			continue
		}
		sim := 0.0
		if sharesElement(q, counts) {
			var err error
			sim, err = Similarity(measure, q, counts)
			if err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, Neighbor{Entity: name, Distance: 1 - sim})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Entity < out[j].Entity
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// mustMatchKNN compares a kNN answer to the oracle: identical entities
// in identical order, distances within the float tolerance the other
// differential harnesses use, and the canonical order holding within
// the answer itself.
func mustMatchKNN(t *testing.T, tag string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d\n got: %v\nwant: %v", tag, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Entity != want[i].Entity {
			t.Fatalf("%s: neighbor %d is %q, oracle has %q\n got: %v\nwant: %v", tag, i, got[i].Entity, want[i].Entity, got, want)
		}
		if d := got[i].Distance - want[i].Distance; d < -1e-9 || d > 1e-9 {
			t.Fatalf("%s: neighbor %q distance %v, oracle %v", tag, got[i].Entity, got[i].Distance, want[i].Distance)
		}
	}
	for i := 1; i < len(got); i++ {
		if worsePublicNeighbor(got[i-1], got[i]) {
			t.Fatalf("%s: answer not in canonical order at %d: %v", tag, i, got)
		}
	}
}

// knnDiffCorpora are the inputs of the online differential. Each
// generator runs on its own seed, and churn draws from the same stream.
var knnDiffCorpora = []struct {
	name string
	seed int64
	gen  func(rng *rand.Rand) map[string]map[string]uint32
}{
	{"clustered", 1012, func(rng *rand.Rand) map[string]map[string]uint32 {
		return knnEntities(rng, 40)
	}},
	// A corpus of 30 entities, fewer than one probe's setup would
	// amortize over.
	{"small", 77, func(rng *rand.Rand) map[string]map[string]uint32 {
		return randomEntities(rng, 30, 20, 6, 3)
	}},
	// 200 entities over a wide alphabet, no hot element.
	{"uniform", 77, func(rng *rand.Rand) map[string]map[string]uint32 {
		return randomEntities(rng, 200, 400, 6, 3)
	}},
	// 200 entities all sharing one stop-word element, whose posting
	// list covers the whole corpus.
	{"stopword", 77, func(rng *rand.Rand) map[string]map[string]uint32 {
		out := randomEntities(rng, 200, 400, 6, 3)
		for _, counts := range out {
			counts["hot"] = 1
		}
		return out
	}},
}

// knnProbes is the query battery: the duplicate multiset (maximal
// ties), generic overlaps, a single hot element, out-of-alphabet
// elements, and the empty query (every entity at distance exactly 1).
func knnProbes(entities map[string]map[string]uint32) []map[string]uint32 {
	return []map[string]uint32{
		{"e1": 3, "e2": 1, "e7": 2}, // the twins' multiset
		{"e0": 1, "e1": 2, "e3": 1},
		{"e5": 4},
		{"nowhere": 7, "e2": 1},
		{"fully-unknown": 1},
		{},
	}
}

// TestKNNDifferentialQuery is the online acceptance gate: measures ×
// corpora × shard counts {1,3,8} × k {1,5,50} against the oracle, with
// all shard counts byte-identical to each other, before and after
// churn.
func TestKNNDifferentialQuery(t *testing.T) {
	for _, measure := range knnDiffMeasures {
		for _, corpus := range knnDiffCorpora {
			t.Run(fmt.Sprintf("%s/%s", measure, corpus.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(corpus.seed))
				runKNNDifferentialQuery(t, measure, rng, corpus.gen(rng))
			})
		}
	}
}

func runKNNDifferentialQuery(t *testing.T, measure string, rng *rand.Rand, entities map[string]map[string]uint32) {
	names := make([]string, 0, len(entities))
	for name := range entities {
		names = append(names, name)
	}
	sort.Strings(names)
	// An ad-hoc copy of an indexed entity: it finds itself at distance 0.
	probes := append(knnProbes(entities), entities[names[3]])

	shardCounts := []int{1, 3, 8}
	indexes := make([]*Index, len(shardCounts))
	for i, shards := range shardCounts {
		ix, err := NewIndex(IndexOptions{Measure: measure, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		indexes[i] = ix
		for _, name := range names {
			mustAdd(t, ix, name, entities[name])
		}
	}

	compare := func(stage string) {
		t.Helper()
		for pi, probe := range probes {
			for _, k := range knnDiffKs {
				var ref []byte
				for i, ix := range indexes {
					got := ix.QueryKNN(probe, k)
					tag := fmt.Sprintf("%s probe %d k=%d shards=%d", stage, pi, k, shardCounts[i])
					mustMatchKNN(t, tag, got, oracleKNN(t, entities, measure, probe, "", k))
					raw, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = raw
					} else if !bytes.Equal(ref, raw) {
						t.Fatalf("%s: shard counts disagree\n%d shards: %s\n1 shard:  %s", tag, shardCounts[i], raw, ref)
					}
				}
			}
		}
		// Entity-relative form: a twin (its own tie group), a hermit (all
		// other entities at distance 1), and a generic entity.
		for _, entity := range []string{"twin-0", "hermit-a", names[7]} {
			if _, ok := entities[entity]; !ok {
				continue // removed by churn
			}
			for _, k := range knnDiffKs {
				for i, ix := range indexes {
					got, err := ix.QueryKNNEntity(entity, k)
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("%s entity %q k=%d shards=%d", stage, entity, k, shardCounts[i])
					mustMatchKNN(t, tag, got, oracleKNN(t, entities, measure, entities[entity], entity, k))
				}
			}
		}
	}
	compare("initial")

	// Churn: remove a third, upsert a third with fresh contents, add a
	// new twin so a tie group crosses every k boundary again.
	for i, name := range names {
		switch i % 3 {
		case 0:
			for _, ix := range indexes {
				mustRemove(t, ix, name)
			}
			delete(entities, name)
		case 1:
			fresh := make(map[string]uint32)
			for j, n := 0, 1+rng.Intn(5); j < n; j++ {
				fresh[fmt.Sprintf("e%d", rng.Intn(26))] = uint32(1 + rng.Intn(4))
			}
			for _, ix := range indexes {
				mustAdd(t, ix, name, fresh)
			}
			entities[name] = fresh
		}
	}
	lateTwin := map[string]uint32{"e1": 3, "e2": 1, "e7": 2}
	for _, ix := range indexes {
		mustAdd(t, ix, "late-twin", lateTwin)
	}
	entities["late-twin"] = lateTwin
	compare("churn")
}

// TestKNNDifferentialAllKNN is the batch acceptance gate: AllKNN's
// per-entity lists against the oracle for measures × k, and
// byte-identical to online QueryKNNEntity over the same corpus — the
// MapReduce pipeline and the serving path answering the same question
// must agree to the last bit.
func TestKNNDifferentialAllKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(1013))
	entities := knnEntities(rng, 35)
	d := datasetOf(entities)
	names := make([]string, 0, len(entities))
	for name := range entities {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, measure := range knnDiffMeasures {
		ix, err := BuildIndex(d, IndexOptions{Measure: measure})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range knnDiffKs {
			res, err := AllKNN(d, k, Options{Measure: measure, Machines: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Neighbors) != len(names) {
				t.Fatalf("%s k=%d: lists for %d entities, want %d", measure, k, len(res.Neighbors), len(names))
			}
			for _, name := range names {
				tag := fmt.Sprintf("allknn %s k=%d entity %q", measure, k, name)
				batch := res.Neighbors[name]
				mustMatchKNN(t, tag, batch, oracleKNN(t, entities, measure, entities[name], name, k))
				online, err := ix.QueryKNNEntity(name, k)
				if err != nil {
					t.Fatal(err)
				}
				bj, err := json.Marshal(batch)
				if err != nil {
					t.Fatal(err)
				}
				oj, err := json.Marshal(online)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bj, oj) {
					t.Fatalf("%s: batch and online disagree\nbatch:  %s\nonline: %s", tag, bj, oj)
				}
			}
		}
		ix.Close()
	}
}
