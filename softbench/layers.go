package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/sym"
)

// perLayerUnits lists every per-layer metric with its unit. A workload that
// does not exercise a layer reports 0 for it.
var perLayerUnits = map[string]string{
	"symexec.explore_s":          "s",
	"symexec.paths":              "count",
	"symexec.branch_queries":     "count",
	"sat.solves":                 "count",
	"sat.assumption_solves":      "count",
	"sat.solve_s":                "s",
	"bitblast.canonical_model_s": "s",
	"sym.intern_hits":            "count",
	"sym.intern_misses":          "count",
	"harness.encode_s":           "s",
	"harness.decode_s":           "s",
	"harness.encode_alloc_mb":    "MB",
	"harness.decode_alloc_mb":    "MB",
	"group.group_s":              "s",
	"group.groups":               "count",
	"crosscheck.check_s":         "s",
	"crosscheck.alloc_mb":        "MB",
	"crosscheck.yield":           "ratio",
	"solver.queries":             "count",
	"solver.cache_hits":          "count",
	"solver.cache_hit_ratio":     "ratio",
	"solver.solve_s":             "s",
	"sched.cells":                "count",
	"sched.cache_hits":           "count",
	"sched.cold_alloc_mb":        "MB",
	"sched.warm_alloc_mb":        "MB",
	"store.result_hits":          "count",
	"store.result_misses":        "count",
	"store.group_hits":           "count",
	"store.bytes_read":           "bytes",
	"store.bytes_written":        "bytes",
	"store.get_result_s":         "s",
	"store.get_groups_s":         "s",
	"store.put_result_s":         "s",
	"dist.leases":                "count",
	"dist.requeues":              "count",
	"dist.stale_results":         "count",
	"dist.lease_rtt_mean_s":      "s",
	"dist.shard_s":               "s",
	"obs.trace_overhead_s":       "s",
}

// counterMetrics maps per-layer metrics to the program's own counters
// (Prometheus names; histograms contribute _sum and _count). Values add.
var counterMetrics = map[string][]string{
	"sat.solves":            {"soft_sat_solves_total", "soft_fleet_remote_sat_solves_total"},
	"sat.assumption_solves": {"soft_sat_assumption_solves_total", "soft_fleet_remote_assumption_solves_total"},
	"solver.queries":        {"soft_solver_queries_total"},
	"solver.cache_hits":     {"soft_solver_cache_hits_total"},
	"store.result_hits":     {"soft_store_result_hits_total"},
	"store.result_misses":   {"soft_store_result_misses_total"},
	"store.group_hits":      {"soft_store_group_hits_total"},
	"store.bytes_read":      {"soft_store_bytes_read_total"},
	"store.bytes_written":   {"soft_store_bytes_written_total"},
	"dist.leases":           {"soft_fleet_leases_total"},
	"dist.requeues":         {"soft_fleet_requeues_total"},
	"dist.stale_results":    {"soft_fleet_stale_results_total"},
}

// readCounters snapshots every counter, gauge and histogram sum/count of
// the program's metrics registry, plus the sym intern table's traffic.
func readCounters() map[string]float64 {
	var buf bytes.Buffer
	obs.WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[name] = f
		}
	}
	hits, misses := sym.InternStats()
	out["sym.intern_hits"] = float64(hits)
	out["sym.intern_misses"] = float64(misses)
	return out
}

func diffCounters(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// span is one complete event of the Chrome trace.
type span struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int64   `json:"pid"`
}

func parseSpans(trace []byte) ([]span, error) {
	var doc struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	var out []span
	for _, s := range doc.TraceEvents {
		if s.Ph == "X" {
			out = append(out, s)
		}
	}
	return out, nil
}

// selfSeconds is the self time of the spans named with prefix: the time
// their union covers in each process, minus the part covered by spans named
// with any of the child prefixes in the same process. Working on unions
// keeps it right when spans of one layer overlap (concurrent cells).
func selfSeconds(spans []span, prefix string, children ...string) float64 {
	pids := map[int64]bool{}
	for _, s := range spans {
		pids[s.Pid] = true
	}
	var total float64
	for pid := range pids {
		own := intervals(spans, pid, prefix)
		var kids [][2]float64
		for _, c := range children {
			kids = append(kids, intervals(spans, pid, c)...)
		}
		total += length(union(own)) - length(intersect(union(own), union(kids)))
	}
	return total / 1e6 // trace timestamps are µs
}

func intervals(spans []span, pid int64, prefix string) [][2]float64 {
	var out [][2]float64
	for _, s := range spans {
		if s.Pid == pid && strings.HasPrefix(s.Name, prefix) {
			out = append(out, [2]float64{s.TS, s.TS + s.Dur})
		}
	}
	return out
}

func union(iv [][2]float64) [][2]float64 {
	s := append([][2]float64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var out [][2]float64
	for _, x := range s {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			if x[1] > out[n-1][1] {
				out[n-1][1] = x[1]
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// intersect intersects two sorted, disjoint interval lists.
func intersect(a, b [][2]float64) [][2]float64 {
	var out [][2]float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if lo < hi {
			out = append(out, [2]float64{lo, hi})
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return out
}

func length(iv [][2]float64) float64 {
	var n float64
	for _, x := range iv {
		n += x[1] - x[0]
	}
	return n
}

// perLayer computes the per-layer metrics of a trace run from its first
// traced pass (figures timed by the benchmark, the program's counters and
// the self times of its spans), adds the workload's extra measurements and
// the tracing overhead, and writes the trace and the per-layer table.
func (b *bench) perLayer(w workload, untraced, traced []*pass) (map[string]metric, error) {
	p := traced[0]
	spans, err := parseSpans(p.trace)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	for name := range perLayerUnits {
		v[name] = p.layer[name]
	}
	for name, sources := range counterMetrics {
		v[name] = 0
		for _, src := range sources {
			v[name] += p.counters[src]
		}
	}
	v["sym.intern_hits"] = p.counters["sym.intern_hits"]
	v["sym.intern_misses"] = p.counters["sym.intern_misses"]
	v["sat.solve_s"] = (p.counters["soft_sat_solve_latency_ns_sum"] + p.counters["soft_fleet_remote_solve_nanos_total"]) / 1e9
	v["solver.solve_s"] = p.counters["soft_solver_solve_latency_ns_sum"] / 1e9
	if v["solver.queries"] > 0 {
		v["solver.cache_hit_ratio"] = v["solver.cache_hits"] / v["solver.queries"]
	}
	if q := p.layer["crosscheck.queries"]; q > 0 {
		v["crosscheck.yield"] = p.layer["crosscheck.incs"] / q
	}
	if n := p.counters["soft_fleet_lease_rtt_ns_count"]; n > 0 {
		v["dist.lease_rtt_mean_s"] = p.counters["soft_fleet_lease_rtt_ns_sum"] / n / 1e9
	}
	v["symexec.explore_s"] = selfSeconds(spans, "explore:")
	if v["crosscheck.check_s"] == 0 {
		v["crosscheck.check_s"] = selfSeconds(spans, "crosscheck:")
	}
	v["store.get_result_s"] = selfSeconds(spans, "store:get-result")
	v["store.get_groups_s"] = selfSeconds(spans, "store:get-groups")
	v["store.put_result_s"] = selfSeconds(spans, "store:put-result")
	v["dist.shard_s"] = selfSeconds(spans, "shard:", "explore:")
	if w.layerOnly != nil {
		if err := w.layerOnly(b, v); err != nil {
			return nil, err
		}
	}
	walls := func(ps []*pass) float64 {
		var xs []float64
		for _, q := range ps {
			xs = append(xs, q.wall)
		}
		return median(xs)
	}
	v["obs.trace_overhead_s"] = walls(traced) - walls(untraced)

	if err := os.WriteFile(b.stem+".trace.json", p.trace, 0o644); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(v))
	for n := range v {
		names = append(names, n)
	}
	sort.Strings(names)
	var table strings.Builder
	fmt.Fprintf(&table, "%-28s %16s  %s\n", "metric", "value", "unit")
	out := map[string]metric{}
	for _, n := range names {
		out[n] = metric{v[n], perLayerUnits[n]}
		fmt.Fprintf(&table, "%-28s %16.6f  %s\n", n, v[n], perLayerUnits[n])
	}
	if err := os.WriteFile(b.stem+".layers.txt", []byte(table.String()), 0o644); err != nil {
		return nil, err
	}
	return out, nil
}
