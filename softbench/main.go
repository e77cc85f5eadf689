// Command softbench is the repository benchmark. It drives the public soft
// API (and internal packages' public functions where the soft API gives no
// access) from one process, runs one named workload for a fixed time, checks
// every output, and prints the metrics as the last line of standard output:
//
//	bash softbench/run.sh --workload flowmod-explore --seed 1 --seconds 32 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and prints the per-layer metrics,
// writing the Chrome trace and a per-layer table under .bench_out/. The
// engine and crosscheck always run single-worker and the campaign fleet has
// one connection, so the load stays within two cores. See README.md for why
// each workload exists and how steady each metric is.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runTimeout bounds one benchmark process, well inside the 180 s a run may
// take; a hung fleet or crosscheck then fails the run instead of stalling it.
const runTimeout = 170 * time.Second

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if addr := os.Getenv(workerEnv); addr != "" {
		os.Exit(runWorker(addr))
	}
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 32, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := run(ctx, config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		outDir:   ".bench_out",
		want:     goldenFull,
		log:      os.Stderr,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "softbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "softbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every workload to a few seconds (the self-test).
	tiny   bool
	outDir string
	want   golden
	log    io.Writer
}

// run executes one workload run and returns its result line. It returns an
// error only when the run could not be carried out at all; output that is
// wrong is reported through Correct and Failed.
func run(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	fp := fingerprint(cfg.seed)
	fpLine, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpLine)
	if err := os.WriteFile(stem+".fingerprint.json", append(fpLine, '\n'), 0o644); err != nil {
		return nil, err
	}

	b := &bench{ctx: ctx, cfg: cfg, stem: stem}
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var untraced, traced []*pass
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		// Trace runs alternate untraced and traced passes so both see the
		// same machine state; plain runs never trace.
		withTrace := cfg.trace && i%2 == 1
		t0 := time.Now()
		p, err := b.runPass(w, i, withTrace)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		if withTrace {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		// Stop once the next pass would mostly run past the deadline; trace
		// runs need at least one pass of each kind.
		done := time.Since(start)+last/2 > cfg.seconds
		if done && (!cfg.trace || len(traced) > 0) {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	metrics := endToEnd(untraced, setups)
	if cfg.trace {
		var err error
		if metrics, err = b.perLayer(w, untraced, traced); err != nil {
			return nil, err
		}
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// endToEnd reduces the untraced passes to the end-to-end metrics: the
// median over passes of each figure.
func endToEnd(ps []*pass, setups []float64) map[string]metric {
	pick := func(f func(*pass) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p)
		}
		return median(vs)
	}
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"wall_s":        {pick(func(p *pass) float64 { return p.wall }), "s"},
		"cpu_s":         {pick(func(p *pass) float64 { return p.cpu }), "s"},
		"alloc_mb":      {pick(func(p *pass) float64 { return p.allocMB }), "MB"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"paths_per_s":   {pick(func(p *pass) float64 { return float64(p.paths) / p.wall }), "1/s"},
		"results_bytes": {pick(func(p *pass) float64 { return float64(p.bytes) }), "bytes"},
		"cold_s":        {pick(func(p *pass) float64 { return p.cold }), "s"},
		"warm_s":        {pick(func(p *pass) float64 { return p.warm }), "s"},
	}
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
