package main

// endToEndNames are the metrics of an untraced run; every workload
// reports all of them.
var endToEndNames = []string{
	"setup_s",
	"allpairs_entities_per_s",
	"allpairs_sharding_entities_per_s",
	"allknn_entities_per_s",
	"read_p50_ms",
	"read_p99_ms",
	"max_qps",
	"peak_rss_mb",
	"batch_peak_rss_mb",
}

// perLayerUnits are the metrics of a traced run and their units. Every
// workload reports all of them; a layer the workload leaves idle reads
// 0 (serve-read has no writes and no router, cluster-mixed replays no
// in-process read path).
var perLayerUnits = map[string]string{
	"records.build_input_s":         "s",
	"core.join_s":                   "s",
	"core.join_sharding_s":          "s",
	"core.candidate_tuples":         "count",
	"core.output_per_candidate":     "ratio",
	"mr.cpu_util":                   "ratio",
	"mr.alloc_mb":                   "MB",
	"mr.gc_cpu_frac":                "ratio",
	"mr.shuffle_mb":                 "MB",
	"mr.combine_ratio":              "ratio",
	"mr.sim_seconds":                "s",
	"knn.allknn_s":                  "s",
	"knn.groups_pruned_frac":        "ratio",
	"similarity.exact_ns_per_pair":  "ns",
	"api.allpairs_self_s":           "s",
	"api.allknn_self_s":             "s",
	"build.bulk_s":                  "s",
	"index.query_p50_us":            "us",
	"index.probes_per_query":        "count",
	"index.candidates_per_query":    "count",
	"index.verified_per_query":      "count",
	"index.results_per_verified":    "ratio",
	"index.allocs_per_query":        "count",
	"index.add_p50_us":              "us",
	"shard.query_p50_us":            "us",
	"shard.self_p50_us":             "us",
	"shard.allocs_per_query":        "count",
	"api.query_p50_us":              "us",
	"api.self_p50_us":               "us",
	"api.cache_hit_rate":            "ratio",
	"api.knn_pad_frac":              "ratio",
	"api.allocs_per_query":          "count",
	"api.add_p50_us":                "us",
	"wal.add_self_p50_us":           "us",
	"wal.bytes_per_user_byte":       "ratio",
	"httpd.handler_p50_us":          "us",
	"httpd.self_p50_us":             "us",
	"httpd.resp_bytes":              "B",
	"httpd.allocs_per_query":        "count",
	"net.self_p50_us":               "us",
	"cluster.query_p50_us":          "us",
	"cluster.self_p50_us":           "us",
	"cluster.add_p50_us":            "us",
	"cluster.add_self_p50_us":       "us",
	"router.self_p50_us":            "us",
	"cluster.hedges_per_query":      "ratio",
	"cluster.diverged_entities_end": "count",
	"write_p50_ms":                  "ms",
	"write_p99_ms":                  "ms",
	"loadgen.lag_p99_ms":            "ms",
	"loadgen.backlog_end":           "count",
	"trace.overhead_frac":           "ratio",
}

var perLayerNames = func() []string {
	var ns []string
	for n := range perLayerUnits {
		ns = append(ns, n)
	}
	return ns
}()
