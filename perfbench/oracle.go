package main

// The benchmark's own brute-force Ruzicka oracle. It shares no code
// with the program's similarity package: an inverted list narrows the
// candidates to entities sharing a cookie, and every candidate is
// scored exactly as Σmin / (|a| + |b| − Σmin).

import (
	"math"
	"sort"
)

// Match is one scored entity.
type Match struct {
	Entity     string  `json:"entity"`
	Similarity float64 `json:"similarity"`
}

// Neighbor is one kNN entry (distance = 1 − similarity).
type Neighbor struct {
	Entity   string  `json:"entity"`
	Distance float64 `json:"distance"`
}

// Oracle answers threshold, top-k and kNN questions over a fixed state.
type Oracle struct {
	sets     map[string]map[string]uint32
	card     map[string]uint64
	postings map[string][]string // cookie → entities holding it
	sorted   []string            // every entity name, ascending
}

// NewOracle indexes the given entities.
func NewOracle(es []Entity) *Oracle {
	o := &Oracle{
		sets:     make(map[string]map[string]uint32, len(es)),
		card:     make(map[string]uint64, len(es)),
		postings: make(map[string][]string),
	}
	for _, e := range es {
		o.sets[e.Name] = e.Counts
		var c uint64
		for ck, n := range e.Counts {
			c += uint64(n)
			o.postings[ck] = append(o.postings[ck], e.Name)
		}
		o.card[e.Name] = c
		o.sorted = append(o.sorted, e.Name)
	}
	sort.Strings(o.sorted)
	return o
}

// ruzicka scores a query against an indexed entity.
func ruzicka(q map[string]uint32, qCard uint64, s map[string]uint32, sCard uint64) float64 {
	var sumMin uint64
	if len(q) > len(s) {
		q, s = s, q
	}
	for ck, a := range q {
		if b, ok := s[ck]; ok {
			sumMin += uint64(min(a, b))
		}
	}
	den := qCard + sCard - sumMin
	if den == 0 {
		return 0
	}
	return float64(sumMin) / float64(den)
}

// scored returns every indexed entity sharing a cookie with q (except
// self), with its similarity.
func (o *Oracle) scored(q map[string]uint32, self string) []Match {
	var qCard uint64
	for _, n := range q {
		qCard += uint64(n)
	}
	seen := make(map[string]bool)
	var out []Match
	for ck := range q {
		for _, e := range o.postings[ck] {
			if e == self || seen[e] {
				continue
			}
			seen[e] = true
			out = append(out, Match{Entity: e, Similarity: ruzicka(q, qCard, o.sets[e], o.card[e])})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Entity < out[j].Entity
	})
	return out
}

// Threshold returns every entity with similarity ≥ t, best first.
func (o *Oracle) Threshold(q map[string]uint32, t float64, self string) []Match {
	all := o.scored(q, self)
	n := sort.Search(len(all), func(i int) bool { return all[i].Similarity < t })
	return all[:n]
}

// TopK returns the k best overlapping entities.
func (o *Oracle) TopK(q map[string]uint32, k int) []Match {
	all := o.scored(q, "")
	return all[:min(k, len(all))]
}

// KNN returns the k nearest entities; when fewer than k overlap, the
// list is padded with non-overlapping entities (distance 1) by name.
func (o *Oracle) KNN(q map[string]uint32, k int, self string) []Neighbor {
	all := o.scored(q, self)
	out := make([]Neighbor, 0, k)
	taken := make(map[string]bool)
	for _, m := range all {
		if len(out) == k {
			break
		}
		out = append(out, Neighbor{Entity: m.Entity, Distance: 1 - m.Similarity})
		taken[m.Entity] = true
	}
	for _, name := range o.sorted {
		if len(out) == k {
			break
		}
		if name != self && !taken[name] {
			out = append(out, Neighbor{Entity: name, Distance: 1})
		}
	}
	return out
}

// sameFloat compares two scores computed by different code.
func sameFloat(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// SameMatches reports whether two match lists agree in order and score.
func SameMatches(got, want []Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Entity != want[i].Entity || !sameFloat(got[i].Similarity, want[i].Similarity) {
			return false
		}
	}
	return true
}

// SameNeighbors reports whether two kNN lists agree in order and distance.
func SameNeighbors(got, want []Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Entity != want[i].Entity || !sameFloat(got[i].Distance, want[i].Distance) {
			return false
		}
	}
	return true
}
