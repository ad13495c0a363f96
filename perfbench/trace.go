package main

// The benchmark's own IP–cookie trace generator. It is deliberately
// independent of internal/datagen so that a change to the program's
// generator cannot move the ruler. Every size below is fixed; only the
// seed varies, so two seeds give the same amount of work drawn
// differently.

import (
	"fmt"
	"math/rand"
	"sort"
)

// Entity is one IP and its cookie observation counts.
type Entity struct {
	Name   string
	Counts map[string]uint32
}

// Trace is a generated IP–cookie trace in generation order (which is a
// seeded shuffle of names, so any prefix is a representative slice).
type Trace struct {
	Entities []Entity
	// HotIPs is the number of IPs carrying at least one hot cookie.
	HotIPs int
}

// TraceShape fixes the sizes of a trace.
type TraceShape struct {
	IPs          int // total IPs
	Cookies      int // background cookie universe
	Communities  int // planted proxy communities
	BigProxies   int // IPs with thousands of cookies
	BigCookies   int // cookies per big proxy
	HotCookies   int // cookies seen on a small share of IPs
	HotShare     float64
	MaxBgCookies int // cap on a background IP's cookie count
}

// DefaultShape is the trace every workload uses.
var DefaultShape = TraceShape{
	IPs:          10000,
	Cookies:      50000,
	Communities:  500,
	BigProxies:   4,
	BigCookies:   2500,
	HotCookies:   6,
	HotShare:     0.02,
	MaxBgCookies: 40,
}

// GenerateTrace builds a trace of the given shape from seed.
func GenerateTrace(shape TraceShape, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, shape.IPs)
	for i := range names {
		names[i] = fmt.Sprintf("ip-%06d", i)
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })

	sets := make([]map[string]uint32, shape.IPs)
	for i := range sets {
		sets[i] = make(map[string]uint32)
	}
	cookie := func(i int) string { return fmt.Sprintf("ck-%06d", i) }
	obs := func() uint32 { return 1 + uint32(rng.ExpFloat64()*2) }

	next := 0
	// Big proxies: thousands of cookies, half shared among them, half
	// drawn from the background universe (so they overlap many IPs).
	shared := make([]string, shape.BigCookies/2)
	for i := range shared {
		shared[i] = fmt.Sprintf("ck-big-%05d", i)
	}
	for b := 0; b < shape.BigProxies; b++ {
		s := sets[next]
		next++
		for _, c := range shared {
			if rng.Float64() < 0.8 {
				s[c] = obs()
			}
		}
		for len(s) < shape.BigCookies {
			s[cookie(rng.Intn(shape.Cookies))] = obs()
		}
	}
	// Proxy communities: 3–12 IPs sharing most of a base cookie set.
	for c := 0; c < shape.Communities && next < shape.IPs; c++ {
		base := make([]string, 5+rng.Intn(26))
		for i := range base {
			base[i] = fmt.Sprintf("ck-c%04d-%02d", c, i)
		}
		size := 3 + rng.Intn(10)
		for m := 0; m < size && next < shape.IPs; m++ {
			s := sets[next]
			next++
			for _, ck := range base {
				if rng.Float64() < 0.85 {
					s[ck] = obs()
				}
			}
			for extra := rng.Intn(3); extra > 0; extra-- {
				s[cookie(rng.Intn(shape.Cookies))] = obs()
			}
			if len(s) == 0 {
				s[base[0]] = 1
			}
		}
	}
	// Background: zipf-distributed cookie counts over a uniform universe.
	bg := rand.NewZipf(rng, 1.6, 1, uint64(shape.MaxBgCookies-1))
	for ; next < shape.IPs; next++ {
		s := sets[next]
		n := 1 + int(bg.Uint64())
		for len(s) < n {
			s[cookie(rng.Intn(shape.Cookies))] = obs()
		}
	}
	// Hot cookies: each lands on HotShare of all IPs.
	hot := make(map[int]bool)
	for h := 0; h < shape.HotCookies; h++ {
		ck := fmt.Sprintf("ck-hot-%d", h)
		for n := int(shape.HotShare * float64(shape.IPs)); n > 0; n-- {
			i := rng.Intn(shape.IPs)
			sets[i][ck] = obs()
			hot[i] = true
		}
	}
	t := &Trace{HotIPs: len(hot)}
	t.Entities = make([]Entity, shape.IPs)
	for i := range sets {
		t.Entities[i] = Entity{Name: names[i], Counts: sets[i]}
	}
	// Generation order placed the big proxies and communities first;
	// shuffle so any prefix is a representative slice.
	rng.Shuffle(len(t.Entities), func(i, j int) { t.Entities[i], t.Entities[j] = t.Entities[j], t.Entities[i] })
	return t
}

// Slice returns n IPs of the trace, big of them big proxies, in trace
// order: the same composition for every seed.
func (t *Trace) Slice(n, big int) []Entity {
	out := make([]Entity, 0, n)
	rest := n - big
	for _, e := range t.Entities {
		if len(e.Counts) >= bigProxyCookies {
			if big > 0 {
				out, big = append(out, e), big-1
			}
		} else if rest > 0 {
			out, rest = append(out, e), rest-1
		}
	}
	return out
}

// Tuples counts the (IP, cookie) tuples of a slice of entities.
func Tuples(es []Entity) int {
	n := 0
	for _, e := range es {
		n += len(e.Counts)
	}
	return n
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys(m map[string]uint32) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
