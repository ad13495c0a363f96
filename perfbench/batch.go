package main

// The batch phase: the paper's own job. It runs in a child process so
// that its peak RSS, allocation and GC figures belong to the batch job
// alone, and no serving daemon is running while it does.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/core"
	"vsmartjoin/internal/knn"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

const (
	batchThreshold = 0.5
	batchK         = 10
	// knnSlice is the number of IPs AllKNN runs on (AllKNN grows much
	// faster than AllPairs with size), knnBig how many of them are big
	// proxies: a fixed number, since each one costs far more than any
	// other IP.
	knnSlice = 5000
	knnBig   = 2
	// batchSamples is how many entities the oracle checks per job.
	batchSamples = 150
	// childReps is how many timed rounds one batch child runs; a run
	// starts one child before the serving phases and one after, so each
	// batch figure is the best of 2×childReps rounds spread across the
	// run rather than taken from one stretch of the shared machine.
	childReps = 2
)

// BatchResult is what a batch child reports to the parent.
type BatchResult struct {
	Entities    int       `json:"entities"`
	KNNEntities int       `json:"knn_entities"`
	Handoff     []float64 `json:"handoff_s"`
	AllPairs    []float64 `json:"allpairs_s"`
	Sharding    []float64 `json:"sharding_s"`
	AllKNN      []float64 `json:"allknn_s"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	Checked     int       `json:"checked"`
	Wrong       int       `json:"wrong"`
	Pairs       int       `json:"pairs"`
	Layers      Metrics   `json:"layers,omitempty"`
	Spans       []Span    `json:"spans,omitempty"`
}

// merge folds a later child's report into r.
func (r *BatchResult) merge(o *BatchResult) {
	r.Handoff = append(r.Handoff, o.Handoff...)
	r.AllPairs = append(r.AllPairs, o.AllPairs...)
	r.Sharding = append(r.Sharding, o.Sharding...)
	r.AllKNN = append(r.AllKNN, o.AllKNN...)
	r.PeakRSSMB = max(r.PeakRSSMB, o.PeakRSSMB)
	r.Checked += o.Checked
	r.Wrong += o.Wrong
}

// runBatchChild re-executes this binary as a batch child and decodes
// its report.
func runBatchChild(seed int64, trace bool) (*BatchResult, error) {
	args := []string{"-batch-child", "-seed", fmt.Sprint(seed)}
	if trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("batch child: %w", err)
	}
	var r BatchResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("batch child output: %w", err)
	}
	return &r, nil
}

// batchChild is the child's main: generate, hand off, run the jobs,
// read the peak RSS, then check answers against the oracle.
func batchChild(seed int64, traced bool) error {
	tr := GenerateTrace(DefaultShape, seed)
	slice := tr.Slice(knnSlice, knnBig)
	res := &BatchResult{Entities: len(tr.Entities), KNNEntities: len(slice)}

	// Hand-off: the trace enters the program through Dataset.Add. It is
	// repeated so the reported set-up time is a median.
	var d, dk *vsmartjoin.Dataset
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		d = vsmartjoin.NewDataset()
		for _, e := range tr.Entities {
			d.Add(e.Name, e.Counts)
		}
		res.Handoff = append(res.Handoff, time.Since(start).Seconds())
	}
	dk = vsmartjoin.NewDataset()
	for _, e := range slice {
		dk.Add(e.Name, e.Counts)
	}
	runtime.GC()

	var rec *Recorder
	if traced {
		rec = NewRecorder()
	}
	// The three jobs run in turn, one untimed round and then childReps
	// timed ones; the parent takes each job's best time over both
	// children, so one stalled round cannot move the figure.
	var (
		pairs, spairs  *vsmartjoin.Result
		kres           *vsmartjoin.KNNResult
		err            error
		tOA, tSh, tKNN []float64
	)
	for rep := -1; rep < childReps; rep++ {
		req := fmt.Sprintf("rep%d", rep)
		opts := vsmartjoin.Options{Threshold: batchThreshold}
		span := rec.Start("api.AllPairs", req+"-allpairs", 0)
		start := time.Now()
		if pairs, err = vsmartjoin.AllPairs(d, opts); err != nil {
			return err
		}
		tOA = append(tOA, time.Since(start).Seconds())
		rec.End(span)

		opts.Algorithm = vsmartjoin.AlgorithmSharding
		span = rec.Start("api.AllPairs", req+"-allpairs-sharding", 0)
		start = time.Now()
		if spairs, err = vsmartjoin.AllPairs(d, opts); err != nil {
			return err
		}
		tSh = append(tSh, time.Since(start).Seconds())
		rec.End(span)

		span = rec.Start("api.AllKNN", req+"-allknn", 0)
		start = time.Now()
		if kres, err = vsmartjoin.AllKNN(dk, batchK, vsmartjoin.Options{}); err != nil {
			return err
		}
		tKNN = append(tKNN, time.Since(start).Seconds())
		rec.End(span)
	}
	// Round -1 warmed the heap up; it is not counted.
	res.AllPairs, res.Sharding, res.AllKNN = tOA[1:], tSh[1:], tKNN[1:]
	res.PeakRSSMB = peakRSSMB(os.Getpid())
	res.Pairs = len(pairs.Pairs)

	// Correctness: sampled entities' pair sets and kNN lists.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	orc := NewOracle(tr.Entities)
	for _, p := range [][]vsmartjoin.Pair{pairs.Pairs, spairs.Pairs} {
		byEntity := make(map[string][]Match)
		for _, pr := range p {
			byEntity[pr.A] = append(byEntity[pr.A], Match{pr.B, pr.Similarity})
			byEntity[pr.B] = append(byEntity[pr.B], Match{pr.A, pr.Similarity})
		}
		for i := 0; i < batchSamples; i++ {
			e := tr.Entities[rng.Intn(len(tr.Entities))]
			got := byEntity[e.Name]
			sort.Slice(got, func(a, b int) bool {
				if got[a].Similarity != got[b].Similarity {
					return got[a].Similarity > got[b].Similarity
				}
				return got[a].Entity < got[b].Entity
			})
			res.Checked++
			if !SameMatches(got, orc.Threshold(e.Counts, batchThreshold, e.Name)) {
				res.Wrong++
			}
		}
	}
	korc := NewOracle(slice)
	for i := 0; i < batchSamples; i++ {
		e := slice[rng.Intn(len(slice))]
		var got []Neighbor
		for _, n := range kres.Neighbors[e.Name] {
			got = append(got, Neighbor{n.Entity, n.Distance})
		}
		res.Checked++
		if !SameNeighbors(got, korc.KNN(e.Counts, batchK, e.Name)) {
			res.Wrong++
		}
	}

	if traced {
		if res.Layers, err = batchLayers(tr, rec, res, orc, rng); err != nil {
			return err
		}
		res.Spans = rec.Spans()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// batchLayers times the layers beneath the public batch API by calling
// them directly on the same input, then derives each layer's self time
// from the untraced public calls timed above.
func batchLayers(tr *Trace, rec *Recorder, res *BatchResult, orc *Oracle, rng *rand.Rand) (Metrics, error) {
	m := Metrics{}
	dict := multiset.NewDict()
	toSets := func(es []Entity) []multiset.Multiset {
		sets := make([]multiset.Multiset, len(es))
		for i, e := range es {
			entries := make([]multiset.Entry, 0, len(e.Counts))
			for _, ck := range sortedKeys(e.Counts) {
				entries = append(entries, multiset.Entry{Elem: dict.Intern(ck), Count: e.Counts[ck]})
			}
			sets[i] = multiset.New(multiset.ID(i+1), entries)
		}
		return sets
	}
	sets, ksets := toSets(tr.Entities), toSets(tr.Slice(knnSlice, knnBig))
	cluster := mr.NewCluster(16, 1<<30)
	ruz, _ := similarity.ByName("ruzicka")

	span := rec.Start("records.BuildInput", "allpairs", 0)
	start := time.Now()
	input := records.BuildInput("input", sets, 64)
	build := time.Since(start).Seconds()
	rec.End(span)
	m.Set("records.build_input_s", build, "s")

	var join, joinSharding float64
	for _, alg := range []core.Algorithm{core.OnlineAggregation, core.Sharding} {
		runtime.GC()
		before := sampleRuntime()
		span := rec.Start("core.Join", fmt.Sprint("join-", alg), 0)
		start := time.Now()
		out, err := core.Join(cluster, input, core.Config{Measure: ruz, Threshold: batchThreshold, Algorithm: alg})
		wall := time.Since(start).Seconds()
		rec.End(span)
		if err != nil {
			return nil, err
		}
		after := sampleRuntime()
		if alg == core.Sharding {
			joinSharding = wall
			m.Set("core.join_sharding_s", wall, "s")
			continue
		}
		join = wall
		m.Set("core.join_s", wall, "s")
		cand := out.Stats.Counter(core.CounterCandidateTuples)
		m.Set("core.candidate_tuples", float64(cand), "count")
		m.Set("core.output_per_candidate", ratio(float64(len(out.Pairs)), float64(cand)), "ratio")
		m.Set("mr.cpu_util", ratio(after.cpu-before.cpu, wall*float64(runtime.NumCPU())), "ratio")
		m.Set("mr.alloc_mb", (after.alloc-before.alloc)/1e6, "MB")
		m.Set("mr.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio")
		var shuffle, mapOut, combOut int64
		for _, j := range out.Stats.Jobs {
			shuffle += j.ShuffleBytes
			mapOut += j.MapOutRecords
			combOut += j.CombineOutRecs
		}
		m.Set("mr.shuffle_mb", float64(shuffle)/1e6, "MB")
		m.Set("mr.combine_ratio", ratio(float64(combOut), float64(mapOut)), "ratio")
		m.Set("mr.sim_seconds", out.Stats.TotalSeconds, "s")
	}
	// AllPairs = hand-off into records + join + the API's own work.
	m.Set("api.allpairs_self_s", (slices.Min(res.AllPairs)+slices.Min(res.Sharding)-2*build-join-joinSharding)/2, "s")

	span = rec.Start("records.BuildInput", "allknn", 0)
	start = time.Now()
	kinput := records.BuildInput("knn-input", ksets, 64)
	kbuild := time.Since(start).Seconds()
	rec.End(span)
	span = rec.Start("knn.AllKNN", "allknn", 0)
	start = time.Now()
	kout, err := knn.AllKNN(cluster, kinput, knn.Config{Measure: ruz, K: batchK})
	kwall := time.Since(start).Seconds()
	rec.End(span)
	if err != nil {
		return nil, err
	}
	m.Set("knn.allknn_s", kwall, "s")
	probed := kout.Stats.Counter(knn.CounterGroupsProbed)
	pruned := kout.Stats.Counter(knn.CounterGroupsPruned)
	m.Set("knn.groups_pruned_frac", ratio(float64(pruned), float64(probed+pruned)), "ratio")
	m.Set("api.allknn_self_s", slices.Min(res.AllKNN)-kbuild-kwall, "s")

	// Exact similarity cost per candidate pair: every oracle candidate of
	// sampled entities, scored by the program's similarity package.
	var pairs [][2]multiset.Multiset
	for len(pairs) < 200000 {
		i := rng.Intn(len(tr.Entities))
		for _, c := range orc.scored(tr.Entities[i].Counts, tr.Entities[i].Name) {
			j := indexOf(tr, c.Entity)
			pairs = append(pairs, [2]multiset.Multiset{sets[i], sets[j]})
		}
	}
	var sink float64
	start = time.Now()
	for _, p := range pairs {
		sink += similarity.Exact(ruz, p[0], p[1])
	}
	m.Set("similarity.exact_ns_per_pair", float64(time.Since(start).Nanoseconds())/float64(len(pairs)), "ns")
	if sink < 0 {
		fmt.Fprintln(os.Stderr, sink)
	}
	return m, nil
}

var nameIndex map[string]int

// indexOf finds an entity's position in the trace.
func indexOf(tr *Trace, name string) int {
	if nameIndex == nil {
		nameIndex = make(map[string]int, len(tr.Entities))
		for i, e := range tr.Entities {
			nameIndex[e.Name] = i
		}
	}
	return nameIndex[name]
}

// runtimeSample is a point reading of process CPU and Go runtime totals.
type runtimeSample struct {
	cpu, alloc, gcCPU, totalCPU float64
}

func sampleRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeSample{
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		alloc:    float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
