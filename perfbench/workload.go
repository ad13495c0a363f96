package main

// The workloads and the run that drives them: the batch phase, the
// serving set-up (repeated, so its time is a median), the open-loop
// phase at the nominal rate, the saturation slices, and the checks.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"vsmartjoin"
)

// Workload is one serving deployment and traffic mix. Every run of
// every workload also runs the batch phase on the same trace first.
type Workload struct {
	Name string
	// Cluster selects 2 partitions × 3 replicas behind a router instead
	// of one node.
	Cluster bool
	// WritePct is the share of writes in the traffic.
	WritePct float64
	// NominalRate is the offered rate (requests/s) of the latency phase.
	NominalRate float64
	// SatOps is the number of requests one saturation slice offers at
	// once; about a second's worth at the workload's capacity.
	SatOps int
}

const (
	conns        = 2 // load-generator connections: nproc of the 2-vCPU machine the benchmark was built on
	setupRepeats = 5
	// satSlices is how many saturation slices max_qps is measured over,
	// satBudget how long saturation may go on while slices are stolen.
	satSlices = 7
	satBudget = 15 * time.Second
	// p99Window is the number of reads each p99 is taken over (five
	// beyond the percentile); read_p99_ms is the median of the windows'
	// p99s, so one stall of the shared machine moves one window only.
	p99Window = 500
	// maxSteal is the share of the machine's CPU time the hypervisor may
	// give other guests during a measured slice before it is discarded
	// (see leastSteal). A quiet host steals under 1%; bursts of 15–30%
	// last tens of seconds.
	maxSteal     = 0.03
	sliceSeconds = 2
	drainLimit   = 5 * time.Second
	reqTimeout   = 5 * time.Second
)

var workloads = map[string]*Workload{
	"serve-read": {
		Name:        "serve-read",
		NominalRate: 600,
		SatOps:      4000,
	},
	"cluster-mixed": {
		Name:        "cluster-mixed",
		Cluster:     true,
		WritePct:    0.3,
		NominalRate: 400,
		SatOps:      1000,
	},
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Env is one run's settings.
type Env struct {
	Daemon  string
	Work    string // scratch directory for this run's data dirs
	Seed    int64
	Seconds int
	Trace   bool
}

// Deployment is a running serving topology.
type Deployment struct {
	Front   *Daemon     // where users send requests: the node or the router
	Nodes   [][]*Daemon // [partition][replica]; one node for serve-read
	All     []*Daemon
	Control *http.Client
	stopped bool
}

// Stop stops every daemon of the deployment; later calls do nothing.
func (d *Deployment) Stop() {
	if !d.stopped {
		d.stopped = true
		StopAll(d.All)
	}
}

// Tally counts operations and failures.
type Tally struct{ Attempted, Failed int }

func (t *Tally) Add(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

func runWorkload(w *Workload, env *Env) (*Result, Metrics, error) {
	if err := os.RemoveAll(env.Work); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(env.Work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(env.Work)

	e2e, layer, props := Metrics{}, Metrics{}, Metrics{}
	for _, n := range perLayerNames {
		layer.Set(n, 0, perLayerUnits[n]) // layers a workload leaves idle read 0
	}
	var tally Tally

	// Batch phase, first half, with no daemon running.
	br, err := runBatchChild(env.Seed, env.Trace)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range br.Layers {
		layer[k] = v
	}

	tr := GenerateTrace(DefaultShape, env.Seed)
	props.Set("entities", float64(len(tr.Entities)), "count")
	props.Set("tuples", float64(Tuples(tr.Entities)), "count")
	props.Set("hot_cookie_ip_share", float64(tr.HotIPs)/float64(len(tr.Entities)), "ratio")
	props.Set("batch_pairs", float64(br.Pairs), "count")

	// Serving set-up, repeated; the last deployment stays up.
	var setups []float64
	var dep *Deployment
	for rep := 0; rep < setupRepeats; rep++ {
		if dep != nil {
			dep.Stop()
		}
		dir := filepath.Join(env.Work, fmt.Sprintf("setup-%d", rep))
		start := time.Now()
		dep, err = deploy(w, env, dir, tr)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer dep.Stop()

	stream := NewStream(tr, env.Seed, w.WritePct, conns)
	model := newModel(tr)
	expect := NewExpect(NewOracle(tr.Entities), stream.Pool)
	sender := httpSender(dep.Front.Addr)

	var rec *Recorder
	if env.Trace {
		rec = NewRecorder()
		lm, err := replayLayers(w, env, dep, tr, model, expect, &tally, rec)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range lm {
			layer[k] = v
		}
	}

	// Latency at the nominal rate. The traced run keeps it short: it
	// only needs the load generator's and the cluster's own figures.
	seconds := float64(env.Seconds)
	if env.Trace {
		seconds = sliceSeconds
	}
	nom := runNominal(w, seconds, stream, sender, expect, model, &tally)
	reads, writes := nom.reads, nom.writes
	props.Set("nominal_slices_kept", float64(nom.kept), "count")
	props.Set("nominal_slices_run", float64(nom.slices), "count")
	e2e.SetN("read_p50_ms", quantile(reads, 0.5), "ms", len(reads))
	e2e.SetN("read_p99_ms", windowedP99(reads, p99Window), "ms", len(reads))
	layer.SetN("write_p50_ms", quantile(writes, 0.5), "ms", len(writes))
	layer.SetN("write_p99_ms", quantile(writes, 0.99), "ms", len(writes))
	var lags []float64
	byKind := map[OpKind][]float64{}
	for i := range nom.outcomes {
		o := &nom.outcomes[i]
		if o.Sent >= 0 {
			lags = append(lags, float64(o.Lag())/1e6)
		}
		byKind[o.Op.Kind] = append(byKind[o.Op.Kind], float64(o.Latency())/1e6)
	}
	layer.SetN("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms", len(lags))
	layer.Set("loadgen.backlog_end", float64(nom.backlog), "count")
	props.Set("nominal_backlog_end", float64(nom.backlog), "count")
	for k, xs := range byKind {
		props.SetN("nominal."+k.String()+"_p50_ms", quantile(xs, 0.5), "ms", len(xs))
		props.SetN("nominal."+k.String()+"_p99_ms", quantile(xs, 0.99), "ms", len(xs))
	}
	props.Set("nominal_lag_p50_ms", quantile(lags, 0.5), "ms")
	props.Set("nominal_lag_p99_ms", quantile(lags, 0.99), "ms")

	// Saturation, untraced runs only.
	if !env.Trace {
		maxQPS, ran := saturate(w, stream, sender, expect, model, &tally)
		e2e.SetN("max_qps", maxQPS, "1/s", ran)
	}

	// Workload properties, read from the program and the responses.
	hits, misses := cacheCounters(dep)
	props.Set("api.cache_hit_rate", ratio(hits, hits+misses), "ratio")
	props.Set("api.knn_pad_frac", ratio(float64(nom.padded), float64(nom.knn)), "ratio")
	layer.Set("api.cache_hit_rate", ratio(hits, hits+misses), "ratio")
	layer.Set("api.knn_pad_frac", ratio(float64(nom.padded), float64(nom.knn)), "ratio")

	if w.Cluster {
		diverged, err := verifyCluster(dep, stream, model, &tally)
		if err != nil {
			return nil, nil, err
		}
		layer.Set("cluster.diverged_entities_end", float64(diverged), "count")
		props.Set("cluster.diverged_entities_end", float64(diverged), "count")
		var st vsmartjoin.ClusterStats
		if _, err := getJSON(dep.Control, "http://"+dep.Front.Addr+"/stats", &st); err == nil {
			layer.Set("cluster.hedges_per_query", ratio(float64(st.Hedges), float64(st.Queries)), "ratio")
		}
	}
	var rss float64
	for _, d := range dep.All {
		rss += peakRSSMB(d.Pid())
	}
	e2e.Set("peak_rss_mb", rss, "MB")

	// Batch phase, second half, once the daemons are gone.
	dep.Stop()
	if !env.Trace {
		br2, err := runBatchChild(env.Seed, false)
		if err != nil {
			return nil, nil, err
		}
		br.merge(br2)
	}
	tally.Attempted += br.Checked
	tally.Failed += br.Wrong
	e2e.SetN("setup_s", median(setups)+median(br.Handoff), "s", len(setups))
	e2e.SetN("allpairs_entities_per_s", float64(br.Entities)/slices.Min(br.AllPairs), "1/s", len(br.AllPairs))
	e2e.SetN("allpairs_sharding_entities_per_s", float64(br.Entities)/slices.Min(br.Sharding), "1/s", len(br.Sharding))
	e2e.SetN("allknn_entities_per_s", float64(br.KNNEntities)/slices.Min(br.AllKNN), "1/s", len(br.AllKNN))
	e2e.Set("batch_peak_rss_mb", br.PeakRSSMB, "MB")
	props.Set("failed_frac", ratio(float64(tally.Failed), float64(tally.Attempted)), "ratio")

	res := &Result{Correct: tally.Failed == 0, Attempted: tally.Attempted, Failed: tally.Failed}
	names := endToEndNames
	res.Metrics = e2e
	if env.Trace {
		names, res.Metrics = perLayerNames, layer
		// Batch spans come from the child; renumber them after ours.
		spans := rec.Spans()
		off := len(spans)
		for _, s := range br.Spans {
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			spans = append(spans, s)
		}
		if err := saveSpans(env, w, spans); err != nil {
			return nil, nil, err
		}
	}
	var missing []string
	res.Metrics, missing = res.Metrics.Only(names)
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, props, nil
}

// deploy starts the workload's daemons on fresh data dirs, hands the
// trace over, and returns once the first request can be served.
func deploy(w *Workload, env *Env, dir string, tr *Trace) (*Deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dep := &Deployment{Control: newClient(30 * time.Second)}
	if !w.Cluster {
		tsv := filepath.Join(dir, "trace.tsv")
		if err := writeTSV(tsv, tr.Entities); err != nil {
			return nil, err
		}
		d, err := StartDaemon(env.Daemon, "-shards", "2", "-data-dir", filepath.Join(dir, "node"), "-load", tsv)
		if err != nil {
			return nil, err
		}
		dep.Front, dep.Nodes, dep.All = d, [][]*Daemon{{d}}, []*Daemon{d}
		if err := waitReady(dep.Control, d.Addr, 60*time.Second); err != nil {
			dep.Stop()
			return nil, err
		}
		return dep, nil
	}
	var spec []string
	for p := 0; p < 2; p++ {
		var replicas []string
		var row []*Daemon
		for r := 0; r < 3; r++ {
			d, err := StartDaemon(env.Daemon, "-shards", "2", "-data-dir", filepath.Join(dir, fmt.Sprintf("p%d-r%d", p, r)))
			if err != nil {
				dep.Stop()
				return nil, err
			}
			dep.All = append(dep.All, d)
			row = append(row, d)
			replicas = append(replicas, d.Addr)
		}
		dep.Nodes = append(dep.Nodes, row)
		spec = append(spec, strings.Join(replicas, ","))
	}
	router, err := StartDaemon(env.Daemon, "-cluster", strings.Join(spec, ";"), "-repair-every", "500ms")
	if err != nil {
		dep.Stop()
		return nil, err
	}
	dep.Front = router
	dep.All = append(dep.All, router)
	for _, d := range dep.All {
		if err := waitReady(dep.Control, d.Addr, 60*time.Second); err != nil {
			dep.Stop()
			return nil, err
		}
	}
	if err := preload(dep.Control, router.Addr, tr.Entities); err != nil {
		dep.Stop()
		return nil, err
	}
	return dep, nil
}

// preload ships the trace through the router's POST /bulk.
func preload(c *http.Client, addr string, es []Entity) error {
	const batch = 500
	for i := 0; i < len(es); i += batch {
		var ops []map[string]any
		for _, e := range es[i:min(i+batch, len(es))] {
			ops = append(ops, map[string]any{"op": "add", "entity": e.Name, "elements": e.Counts})
		}
		body, err := json.Marshal(map[string]any{"ops": ops})
		if err != nil {
			return err
		}
		status, resp, err := post(context.Background(), c, "http://"+addr+"/bulk", body)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("preload: status %d: %s", status, resp)
		}
	}
	return nil
}

// httpSender sends operations over one single-connection client per
// load-generator connection.
func httpSender(addr string) Sender {
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = newClient(reqTimeout)
	}
	return func(ctx context.Context, conn int, op *Op) (int, []byte, error) {
		return post(ctx, clients[conn], "http://"+addr+op.Path, op.Body)
	}
}

// score checks a phase's outcomes and returns read and write latencies
// (ms), plus the count of padded kNN replies among kNN replies.
func score(ph PhaseResult, w *Workload, expect *Expect, model *Model, t *Tally) (reads, writes []float64, padded, knnReplies int) {
	for i := range ph.Outcomes {
		o := &ph.Outcomes[i]
		ok := o.Err == nil && o.Status == http.StatusOK
		lat := float64(o.Latency()) / 1e6
		if o.Sent < 0 {
			lat = math.Inf(1)
		}
		if o.Op.Kind.IsWrite() {
			model.Apply(o.Op, ok)
			writes = append(writes, lat)
			t.Add(ok)
			continue
		}
		reads = append(reads, lat)
		if ok && !w.Cluster {
			// A read-only deployment's answers never change: check each.
			var pad bool
			ok, pad = expect.Check(o.Op.Query, o.Body)
			if o.Op.Kind == OpKNN {
				knnReplies++
				if pad {
					padded++
				}
			}
		} else if ok && o.Op.Kind == OpKNN {
			// Under writes only the padding share is read off the reply.
			knnReplies++
			if Padded(o.Body) {
				padded++
			}
		}
		t.Add(ok)
	}
	return reads, writes, padded, knnReplies
}

// nominalResult is the measured part of the nominal phase.
type nominalResult struct {
	outcomes      []Outcome
	reads, writes []float64
	padded, knn   int // padded kNN replies, kNN replies
	backlog       int
	kept, slices  int
}

// leastSteal calls slice until need calls ran with at most maxSteal of
// the machine's CPU taken by the hypervisor for other guests, or until
// at least need calls ran and budget has passed, and returns which calls
// to keep: the need with the least steal. A slice with more steal
// measures the host, not the program; the budget lets a burst of steal
// pass instead of measuring it.
func leastSteal(need int, budget time.Duration, slice func()) (keep []bool) {
	start := time.Now()
	var steal []float64
	for clean := 0; clean < need && (len(steal) < need || time.Since(start) < budget); {
		tot0, steal0 := cpuTimes()
		slice()
		tot1, steal1 := cpuTimes()
		steal = append(steal, ratio(steal1-steal0, tot1-tot0))
		if steal[len(steal)-1] <= maxSteal {
			clean++
		}
	}
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	keep = make([]bool, len(steal))
	for _, i := range order[:need] {
		keep[i] = true
	}
	return keep
}

// runNominal offers the nominal rate in slices of sliceSeconds and
// measures seconds' worth of them, chosen by leastSteal within twice
// that time. Every slice is checked and counted.
func runNominal(w *Workload, seconds float64, stream *Stream, sender Sender, expect *Expect, model *Model, t *Tally) nominalResult {
	need := int(math.Ceil(seconds / sliceSeconds))
	var all []nominalResult
	keep := leastSteal(need, time.Duration(2*seconds*float64(time.Second)), func() {
		ph := RunOpenLoop(Schedule(stream.Take(int(w.NominalRate*sliceSeconds)), w.NominalRate), conns, sender, drainLimit)
		s := nominalResult{outcomes: ph.Outcomes, backlog: ph.BacklogEnd}
		s.reads, s.writes, s.padded, s.knn = score(ph, w, expect, model, t)
		all = append(all, s)
	})
	r := nominalResult{kept: need, slices: len(all)}
	for i, s := range all {
		if !keep[i] {
			continue
		}
		r.outcomes = append(r.outcomes, s.outcomes...)
		r.reads = append(r.reads, s.reads...)
		r.writes = append(r.writes, s.writes...)
		r.padded += s.padded
		r.knn += s.knn
		r.backlog += s.backlog
	}
	return r
}

// saturate measures the highest rate the deployment sustains. Each
// slice offers w.SatOps requests all due at once, so every connection
// sends its next request as soon as the previous one returns; max_qps
// is the requests of the satSlices slices kept by leastSteal over the
// time they took to complete. Every reply is checked and counted. The
// drain limit is generous so that a slower program reads as a lower
// rate, not as failed requests. It returns max_qps and the number of
// slices run.
func saturate(w *Workload, stream *Stream, sender Sender, expect *Expect, model *Model, t *Tally) (float64, int) {
	var ops, secs []float64
	keep := leastSteal(satSlices, satBudget, func() {
		ph := RunOpenLoop(Schedule(stream.Take(w.SatOps), math.Inf(1)), conns, sender, 10*drainLimit)
		score(ph, w, expect, model, t)
		ops = append(ops, float64(len(ph.Outcomes)))
		secs = append(secs, lastDone(ph).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: saturation slice: %.0f/s\n", ops[len(ops)-1]/secs[len(secs)-1])
	})
	var n, d float64
	for i := range keep {
		if keep[i] {
			n, d = n+ops[i], d+secs[i]
		}
	}
	return n / d, len(keep)
}

// lastDone is when the phase's last operation completed.
func lastDone(ph PhaseResult) time.Duration {
	var d time.Duration
	for i := range ph.Outcomes {
		d = max(d, ph.Outcomes[i].Done)
	}
	return max(d, ph.Span)
}

// cacheCounters sums the result-cache counters of every node.
func cacheCounters(dep *Deployment) (hits, misses float64) {
	for _, row := range dep.Nodes {
		for _, d := range row {
			var st vsmartjoin.IndexStats
			if _, err := getJSON(dep.Control, "http://"+d.Addr+"/stats", &st); err == nil {
				hits += float64(st.CacheHits)
				misses += float64(st.CacheMisses)
			}
		}
	}
	return hits, misses
}

func saveSpans(env *Env, w *Workload, spans []Span) error {
	dir := filepath.Join(filepath.Dir(env.Work), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, env.Seed)), spans)
}
