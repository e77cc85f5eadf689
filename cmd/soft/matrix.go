package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/soft-testing/soft"
	"github.com/soft-testing/soft/internal/bitblast"
	"github.com/soft-testing/soft/internal/dist"
	"github.com/soft-testing/soft/internal/obs"
	"github.com/soft-testing/soft/internal/store"
)

func matrixCmd() *command {
	return &command{
		name:     "matrix",
		synopsis: "run a campaign: explore every (agent, test) cell, crosscheck every agent pair",
		run:      runMatrix,
	}
}

// splitList parses a comma-separated flag value, trimming whitespace and
// dropping empties. An empty value means "all".
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseShardDepth understands the -shard-depth flag's three forms: "" (the
// dist default), "auto" (adaptive balancing), or an integer depth.
func parseShardDepth(s string) (depth int, adaptive bool, err error) {
	switch s {
	case "", "0":
		return 0, false, nil
	case "auto":
		return 0, true, nil
	}
	d, err := strconv.Atoi(s)
	if err != nil || d < 0 {
		return 0, false, fmt.Errorf("invalid -shard-depth %q (want an integer or \"auto\")", s)
	}
	return d, false, nil
}

func runMatrix(e *env, args []string) error {
	fs := newFlags(e, "matrix")
	agentsFlag := fs.String("agents", "", "comma-separated agent names (default: all registered; see 'soft agents')")
	testsFlag := fs.String("tests", "", "comma-separated Table 1 test names (default: the whole suite; see 'soft tests')")
	scenariosFlag := fs.String("scenarios", "", "comma-separated scenario names to add as matrix columns (\"all\" = every registered scenario; accepts gen:<index>)")
	addr := fs.String("addr", "", "listen for a soft-work fleet on this TCP address (use :0 for an ephemeral port); empty explores in-process")
	workers := fs.Int("workers", 0, "in-process parallelism: exploration workers per cell (fleetless) and crosscheck solver workers (0 = GOMAXPROCS)")
	maxPaths := fs.Int("max-paths", 0, "cap on explored paths per cell (0 = default); campaign truncation is canonical")
	models := fs.Bool("models", true, "extract a concrete input example per path")
	storeDir := fs.String("store", "", "result-store directory: cache cell results and groupings, skip unchanged cells on re-runs")
	codeVersion := fs.String("code-version", "", "override the cache key's code version (default: the binary's VCS build stamp)")
	storeMigrate := fs.Bool("store-migrate", false, "re-stamp a store recorded under a different code version instead of refusing it")
	service := fs.String("service", "", "run the campaign on this campaign service (base URL; see 'soft campaignd') instead of in-process")
	tenant := fs.String("tenant", "", "tenant name for -service jobs (default \"default\")")
	shardDepth := fs.String("shard-depth", "", "fleet frontier split depth: an integer, or \"auto\" for progress-driven balancing")
	leaseTimeout := fs.Duration("lease-timeout", 0, "re-offer a fleet shard not completed in this long (0 = default, negative = never)")
	crossCheck := fs.Bool("crosscheck", true, "run phase 2 over every agent pair per test (false: explore and cache cells only)")
	budget := fs.Duration("budget", 0, "time budget per pair check (0 = unlimited; a budget can make checks partial and reports non-reproducible)")
	resultsDir := fs.String("results-dir", "", "also write each cell's results file into this directory")
	out := fs.String("o", "", "write the canonical campaign report to this file (byte-identical across reruns)")
	benchJSON := fs.String("bench-json", "", "merge this run's throughput metrics (cells/sec, cache-hit rate) into this JSON file as its cold or warm pass")
	benchPass := fs.String("bench-pass", "auto", "which -bench-json pass this run is: cold, warm, or auto (classify by cache hits)")
	benchDist := fs.Int("bench-dist", 0, "record this fleet run's scaling metrics (paths/sec, lease-RTT quantiles) under dist_scaling/w<N> of -bench-json instead of a cold/warm pass (N = worker process count)")
	traceOut := fs.String("trace", "", "write a Chrome-trace-event JSON of this campaign's spans to this file (load in Perfetto; results are byte-identical either way)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit; on expiry the campaign aborts")
	progress := fs.Bool("progress", false, "report fleet lifecycle and cell/check progress on stderr")
	verbose := fs.Bool("v", false, "report cache, fleet, and solver statistics on stderr")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}

	agents := splitList(*agentsFlag)
	tests := splitList(*testsFlag)
	// Validate names up front so mistakes are usage errors (exit 2), as in
	// every other subcommand.
	for _, a := range agents {
		if _, err := soft.AgentByName(a); err != nil {
			return usageError{err}
		}
	}
	for _, t := range tests {
		if _, ok := soft.TestByName(t); !ok {
			return usagef("unknown test %q (run 'soft tests')", t)
		}
	}
	var scenarios []string
	if *scenariosFlag == "all" {
		scenarios = soft.ScenarioNames()
	} else {
		scenarios = splitList(*scenariosFlag)
		for _, sc := range scenarios {
			if _, ok := soft.ScenarioByName(sc); !ok {
				return usagef("unknown scenario %q (run 'soft scenarios')", sc)
			}
		}
	}
	depth, adaptive, err := parseShardDepth(*shardDepth)
	if err != nil {
		return usageError{err}
	}
	switch *benchPass {
	case "auto", "cold", "warm":
	default:
		return usagef("invalid -bench-pass %q (want cold, warm, or auto)", *benchPass)
	}
	if *benchDist > 0 && *benchJSON == "" {
		return usagef("-bench-dist needs -bench-json: the scaling point has nowhere to go")
	}
	if *service != "" {
		// A service-side campaign owns its own store and fleet; the
		// client-side equivalents would silently do nothing.
		for flagName, set := range map[string]bool{
			"-store": *storeDir != "", "-addr": *addr != "", "-results-dir": *resultsDir != "",
		} {
			if set {
				return usagef("%s cannot be combined with -service: the campaign service owns the store and fleet (and reports carry no raw results)", flagName)
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []soft.Option{
		soft.WithScenarios(scenarios...),
		soft.WithWorkers(*workers),
		soft.WithMaxPaths(*maxPaths),
		soft.WithModels(*models),
		soft.WithShardDepth(depth),
		soft.WithAdaptiveShards(adaptive),
		soft.WithLeaseTimeout(*leaseTimeout),
		soft.WithCrossCheck(*crossCheck),
		soft.WithBudget(*budget),
	}
	if *storeDir != "" {
		// Refuse (exit 2) a store stamped for a different code version
		// before any work happens — reusing it would miss every entry, or
		// worse, collide when both stamps are the "unversioned" fallback.
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		cv := *codeVersion
		if cv == "" {
			cv = store.DefaultCodeVersion()
		}
		if err := ensureStoreVersion(st, cv, *storeMigrate); err != nil {
			return err
		}
		opts = append(opts, soft.WithStore(*storeDir))
	}
	if *codeVersion != "" {
		opts = append(opts, soft.WithCodeVersion(*codeVersion))
	}
	if *service != "" {
		opts = append(opts, soft.WithCampaignService(*service))
		if *tenant != "" {
			opts = append(opts, soft.WithTenant(*tenant))
		}
	}
	if *addr != "" {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		// The chosen address goes out before any worker could need it —
		// e2e harnesses and humans alike parse this line to start workers.
		fmt.Fprintf(e.stderr, "soft matrix: listening on %s\n", ln.Addr())
		opts = append(opts, soft.WithFleetListener(ln))
	}
	if *progress {
		opts = append(opts, soft.WithLog(e.stderr))
		var mu sync.Mutex
		var last time.Time
		opts = append(opts, soft.WithProgress(func(ev soft.Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Done < ev.Total && time.Since(last) < 250*time.Millisecond {
				return
			}
			last = time.Now()
			fmt.Fprintf(e.stderr, "soft matrix: %d/%d work units...\n", ev.Done, ev.Total)
		}))
	}

	var flushTrace func() error
	if *traceOut != "" {
		flushTrace = startTrace(*traceOut)
	}
	// Snapshot the process-global solve-latency and lease-RTT histograms
	// around the run so the bench file records this campaign's quantiles,
	// not the process's.
	latBefore := bitblast.MSolveLatency.Snapshot()
	rttBefore := dist.LeaseRTTSnapshot()
	start := time.Now()
	rep, err := soft.RunMatrix(ctx, agents, tests, opts...)
	if flushTrace != nil {
		if ferr := flushTrace(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	solveLat := bitblast.MSolveLatency.Snapshot().Sub(latBefore)
	leaseRTT := dist.LeaseRTTSnapshot().Sub(rttBefore)

	// Human-readable summary: deterministic content plus run annotations
	// (cache markers) that describe this run, not the result.
	fmt.Fprintf(e.stdout, "matrix %s × %s: %d cells (%d explored, %d cached)\n",
		strings.Join(rep.Agents, ","), strings.Join(rep.Tests, ","),
		len(rep.Cells), rep.CacheMisses, rep.CacheHits)
	for i := range rep.Cells {
		c := &rep.Cells[i]
		mark := ""
		if c.CacheHit {
			mark = " [cached]"
		}
		if c.Truncated {
			mark += " [truncated]"
		}
		// The cell's summary fields work for local and service runs alike;
		// service reports carry no raw Result.
		fmt.Fprintf(e.stdout, "cell %s / %s: %d paths (coverage %.1f%% instr, %.1f%% branch)%s\n",
			c.Agent, c.Test, c.Paths, c.InstrPct, c.BranchPct, mark)
	}
	for i := range rep.Checks {
		c := &rep.Checks[i]
		partial := ""
		if c.Report.Partial {
			partial = " (partial)"
		}
		fmt.Fprintf(e.stdout, "check %s: %s vs %s: %d inconsistencies, ~%d root causes (%d×%d groups, %d queries)%s\n",
			c.Test, c.AgentA, c.AgentB, len(c.Report.Inconsistencies), c.Report.RootCauses(),
			c.GroupsA, c.GroupsB, c.Report.Queries, partial)
	}
	if *verbose {
		fmt.Fprintf(e.stderr, "soft matrix: result store: %d hits, %d misses; grouping cache: %d hits, %d misses\n",
			rep.CacheHits, rep.CacheMisses, rep.GroupCacheHits, rep.GroupCacheMisses)
		if fsStats := rep.FleetStats; fsStats != nil {
			fmt.Fprintf(e.stderr, "soft matrix: fleet: %d workers (%d rejected), %d jobs, %d leases (%d batched, %d shards), %d re-queues, %d expirations, %d splits (+%d shards), %d stale results\n",
				fsStats.WorkersJoined, fsStats.WorkersRejected, fsStats.JobsCompleted,
				fsStats.Leases, fsStats.BatchedLeases, fsStats.ShardsLeased,
				fsStats.Requeues, fsStats.Expirations, fsStats.Splits, fsStats.SplitShards,
				fsStats.StaleResults)
		}
		fmt.Fprintf(e.stderr, "soft matrix: %s\n", describeStats(rep.SolverStats, rep.BranchQueries))
		fmt.Fprintf(e.stderr, "soft matrix: campaign completed in %s\n", rep.Elapsed.Round(time.Millisecond))
	}

	if *resultsDir != "" {
		if err := os.MkdirAll(*resultsDir, 0o755); err != nil {
			return err
		}
		for i := range rep.Cells {
			c := &rep.Cells[i]
			path := filepath.Join(*resultsDir, cellFileName(c.Agent, c.Test))
			if err := writeResultFile(path, c); err != nil {
				return err
			}
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := rep.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *benchJSON != "" {
		if *benchDist > 0 {
			if err := mergeDistBench(*benchJSON, *benchDist, rep, time.Since(start), solveLat, leaseRTT); err != nil {
				return err
			}
		} else if err := writeBenchJSON(*benchJSON, *benchPass, rep, time.Since(start), solveLat); err != nil {
			return err
		}
	}
	return nil
}

// cellFileName renders a filesystem-safe per-cell results file name.
func cellFileName(agent, test string) string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
				return r
			default:
				return '_'
			}
		}, s)
	}
	return clean(agent) + "--" + clean(test) + ".results"
}

func writeResultFile(path string, c *soft.MatrixCell) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Result.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchMetrics is one pass of the BENCH_matrix.json schema: the campaign
// throughput numbers tracked across PRs. CellsPerSec measures exploration
// throughput, so cached cells are excluded from its numerator — a cold
// pass that found stale cache entries must not look faster than one that
// explored everything. A fully cached pass (explored = 0) reports store
// lookup throughput over all cells instead.
type benchMetrics struct {
	Cells        int     `json:"cells"`
	Explored     int     `json:"explored"`
	Cached       int     `json:"cached"`
	Checks       int     `json:"checks"`
	Paths        int     `json:"paths"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	CellsPerSec  float64 `json:"cells_per_sec"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SolverStats breaks the pass's solver work down (see benchSolverStats);
	// fully cached passes legitimately report all zeros.
	SolverStats *benchSolverStats `json:"solver_stats,omitempty"`
}

// benchSolverStats is the solver-side view of one bench pass: how many
// satisfiability decisions were made and how much structure was reused
// (query cache, session activation cache, hash-cons table).
type benchSolverStats struct {
	Queries           int64 `json:"queries"`
	CacheHits         int64 `json:"cache_hits"`
	AssumptionSolves  int64 `json:"assumption_solves"`
	ConstraintsReused int64 `json:"constraints_reused"`
	InternHits        int64 `json:"intern_hits"`
	// SolveLatencyP50Ns/P99Ns summarize the run's SAT solve-latency
	// histogram (power-of-two buckets: the quantile is an upper bound
	// within 2× of the true value). Zero when the pass did no local
	// solving — fully cached and service-side runs.
	SolveLatencyP50Ns int64 `json:"solve_latency_p50_ns,omitempty"`
	SolveLatencyP99Ns int64 `json:"solve_latency_p99_ns,omitempty"`
}

func toBenchSolverStats(st soft.SolverStats, lat obs.HistogramSnapshot) *benchSolverStats {
	b := &benchSolverStats{
		Queries:           st.Queries,
		CacheHits:         st.CacheHits,
		AssumptionSolves:  st.AssumptionSolves,
		ConstraintsReused: st.ConstraintsReused,
		InternHits:        st.InternHits,
	}
	if lat.Count() > 0 {
		b.SolveLatencyP50Ns = lat.Quantile(0.5)
		b.SolveLatencyP99Ns = lat.Quantile(0.99)
	}
	return b
}

// benchFile is the whole BENCH_matrix.json: both passes of the cold/warm
// pair, merged across the two `soft matrix -bench-json` invocations that
// produce them. (The old single-object schema recorded only whichever
// pass ran last — the warm numbers silently replaced the cold ones.)
type benchFile struct {
	Schema string        `json:"schema"`
	Cold   *benchMetrics `json:"cold,omitempty"`
	Warm   *benchMetrics `json:"warm,omitempty"`
	Mixed  *benchMetrics `json:"mixed,omitempty"`
	// ScenarioCold holds cold engine baselines from
	// `soft explore -scenario X -workers N -bench-json`, keyed
	// "<scenario>/w<N>" — raw paths/sec with no store in the loop (the
	// ROADMAP "honest performance trajectory" numbers). Additive to the
	// v2 schema: files without it parse unchanged.
	ScenarioCold map[string]*scenarioBenchMetrics `json:"scenario_cold,omitempty"`
	// ScenarioFamilies aggregates ScenarioCold per scenario across worker
	// counts: total paths and elapsed, and one paths/sec over the sums.
	// Individual sub-millisecond runs are pure timer noise — the family
	// aggregate is the number worth tracking for fast scenarios.
	ScenarioFamilies map[string]*scenarioFamilyMetrics `json:"scenario_families,omitempty"`
	// Incremental is the recorded before/after evidence for the session
	// engine (per-path solvers vs assumption-stack sessions, keyed
	// "<scenario>/w<N>"). The per-path engine is no longer a runnable mode,
	// so no code writes this object; it is carried through rewrites
	// verbatim so the history survives.
	Incremental json.RawMessage `json:"incremental,omitempty"`
	// DistScaling holds fleet scaling points from
	// `soft matrix -addr ... -bench-dist N -bench-json`, keyed "w<N>" by
	// worker process count: campaign paths/sec plus the coordinator's
	// lease round-trip quantiles at that fleet width. Additive to the v2
	// schema: files without it parse unchanged.
	DistScaling map[string]*distBenchMetrics `json:"dist_scaling,omitempty"`
}

// scenarioBenchMetrics is one cold scenario exploration: pure engine
// throughput, no cache anywhere. PathsPerSec stays zero for runs faster
// than benchMinElapsed — a ratio over a sub-millisecond denominator is
// timer noise, not a throughput measurement (see ScenarioFamilies).
type scenarioBenchMetrics struct {
	Workers     int     `json:"workers"`
	Paths       int     `json:"paths"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	PathsPerSec float64 `json:"paths_per_sec,omitempty"`
	// TooFast marks a run under benchMinElapsed whose paths/sec was
	// deliberately not reported.
	TooFast     bool              `json:"too_fast,omitempty"`
	SolverStats *benchSolverStats `json:"solver_stats,omitempty"`
}

// scenarioFamilyMetrics aggregates every recorded worker count of one
// scenario: noise-resistant totals for scenarios whose individual runs are
// too fast to time.
type scenarioFamilyMetrics struct {
	Runs        int     `json:"runs"`
	Paths       int     `json:"paths"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	PathsPerSec float64 `json:"paths_per_sec,omitempty"`
}

// distBenchMetrics is one fleet-width point of the distributed scaling
// bench: the same FlowMod matrix driven through a real TCP fleet at N
// worker processes. Determinism makes every point's report byte-identical;
// only the timing moves.
type distBenchMetrics struct {
	Workers     int     `json:"workers"`
	Cells       int     `json:"cells"`
	Explored    int     `json:"explored"`
	Paths       int     `json:"paths"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	PathsPerSec float64 `json:"paths_per_sec,omitempty"`
	// LeaseRTTP50Ns/P99Ns summarize the coordinator's grant-to-first-
	// result round trip per shard (power-of-two buckets: quantiles are
	// upper bounds within 2×). Zero when the run granted no leases.
	LeaseRTTP50Ns int64             `json:"lease_rtt_p50_ns,omitempty"`
	LeaseRTTP99Ns int64             `json:"lease_rtt_p99_ns,omitempty"`
	Leases        int64             `json:"leases,omitempty"`
	SolverStats   *benchSolverStats `json:"solver_stats,omitempty"`
}

// mergeDistBench merges one fleet-width scaling point into the bench file
// (same read-modify-write shape as writeBenchJSON, same schema).
func mergeDistBench(path string, workers int, rep *soft.MatrixReport, elapsed time.Duration, solveLat, leaseRTT obs.HistogramSnapshot) error {
	paths := 0
	for i := range rep.Cells {
		paths += rep.Cells[i].Paths
	}
	m := &distBenchMetrics{
		Workers:     workers,
		Cells:       len(rep.Cells),
		Explored:    rep.CacheMisses,
		Paths:       paths,
		ElapsedSec:  elapsed.Seconds(),
		SolverStats: toBenchSolverStats(rep.SolverStats, solveLat),
	}
	if s := elapsed.Seconds(); s > 0 && elapsed >= benchMinElapsed {
		m.PathsPerSec = float64(paths) / s
	}
	if n := leaseRTT.Count(); n > 0 {
		m.Leases = n
		m.LeaseRTTP50Ns = leaseRTT.Quantile(0.5)
		m.LeaseRTTP99Ns = leaseRTT.Quantile(0.99)
	}
	return updateBenchFile(path, func(f *benchFile) {
		if f.DistScaling == nil {
			f.DistScaling = map[string]*distBenchMetrics{}
		}
		f.DistScaling[fmt.Sprintf("w%d", workers)] = m
	})
}

// updateBenchFile is the read-modify-write every bench writer shares: the
// objects already on disk are kept (a file in another schema is
// replaced), update changes its own object, and the file is rewritten.
func updateBenchFile(path string, update func(*benchFile)) error {
	var f benchFile
	if existing, err := os.ReadFile(path); err == nil {
		var parsed benchFile
		if json.Unmarshal(existing, &parsed) == nil && parsed.Schema == benchSchema {
			f = parsed
		}
	}
	f.Schema = benchSchema
	update(&f)
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchMinElapsed is the shortest run whose paths/sec is worth reporting;
// anything faster is dominated by timer granularity and scheduler jitter.
const benchMinElapsed = time.Millisecond

// mergeScenarioBench merges one cold scenario run into the bench file's
// scenario_cold object and refreshes the family aggregates.
func mergeScenarioBench(path, scenarioName string, workers int, res *soft.Result, solveLat obs.HistogramSnapshot) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pathsPerSec := 0.0
	tooFast := res.Elapsed < benchMinElapsed
	if s := res.Elapsed.Seconds(); s > 0 && !tooFast {
		pathsPerSec = float64(len(res.Paths)) / s
	}
	key := fmt.Sprintf("%s/w%d", scenarioName, workers)
	return updateBenchFile(path, func(f *benchFile) {
		if f.ScenarioCold == nil {
			f.ScenarioCold = map[string]*scenarioBenchMetrics{}
		}
		f.ScenarioCold[key] = &scenarioBenchMetrics{
			Workers:     workers,
			Paths:       len(res.Paths),
			ElapsedSec:  res.Elapsed.Seconds(),
			PathsPerSec: pathsPerSec,
			TooFast:     tooFast,
			SolverStats: toBenchSolverStats(res.SolverStats, solveLat),
		}
		f.ScenarioFamilies = aggregateFamilies(f.ScenarioCold)
	})
}

// aggregateFamilies recomputes the per-scenario totals from every recorded
// scenario_cold entry (keys are "<scenario>/w<N>").
func aggregateFamilies(cold map[string]*scenarioBenchMetrics) map[string]*scenarioFamilyMetrics {
	if len(cold) == 0 {
		return nil
	}
	fams := map[string]*scenarioFamilyMetrics{}
	for key, m := range cold {
		name := key
		if i := strings.LastIndex(key, "/w"); i >= 0 {
			name = key[:i]
		}
		fam := fams[name]
		if fam == nil {
			fam = &scenarioFamilyMetrics{}
			fams[name] = fam
		}
		fam.Runs++
		fam.Paths += m.Paths
		fam.ElapsedSec += m.ElapsedSec
	}
	for _, fam := range fams {
		if fam.ElapsedSec > 0 {
			fam.PathsPerSec = float64(fam.Paths) / fam.ElapsedSec
		}
	}
	return fams
}

const benchSchema = "soft-bench-matrix v2"

// classifyBenchPass resolves -bench-pass=auto from the run's cache
// counters: no hits is a cold pass, no misses (with at least one hit) a
// warm one, anything else mixed.
func classifyBenchPass(pass string, rep *soft.MatrixReport) string {
	if pass != "auto" {
		return pass
	}
	switch {
	case rep.CacheHits == 0:
		return "cold"
	case rep.CacheMisses == 0 && rep.CacheHits > 0:
		return "warm"
	default:
		return "mixed"
	}
}

func writeBenchJSON(path, pass string, rep *soft.MatrixReport, elapsed time.Duration, solveLat obs.HistogramSnapshot) error {
	paths := 0
	for i := range rep.Cells {
		paths += rep.Cells[i].Paths
	}
	m := &benchMetrics{
		Cells:      len(rep.Cells),
		Explored:   rep.CacheMisses,
		Cached:     rep.CacheHits,
		Checks:     len(rep.Checks),
		Paths:      paths,
		ElapsedSec: elapsed.Seconds(),
	}
	if s := elapsed.Seconds(); s > 0 {
		if rep.CacheMisses > 0 {
			m.CellsPerSec = float64(rep.CacheMisses) / s
		} else {
			m.CellsPerSec = float64(len(rep.Cells)) / s
		}
	}
	if len(rep.Cells) > 0 {
		m.CacheHitRate = float64(rep.CacheHits) / float64(len(rep.Cells))
	}
	m.SolverStats = toBenchSolverStats(rep.SolverStats, solveLat)

	// Merge with the passes already on disk so cold and warm runs build one
	// file between them.
	return updateBenchFile(path, func(f *benchFile) {
		switch classifyBenchPass(pass, rep) {
		case "cold":
			f.Cold = m
		case "warm":
			f.Warm = m
		default:
			f.Mixed = m
		}
	})
}
