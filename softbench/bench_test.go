package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The campaign's fleet worker re-executes this test binary.
	if addr := os.Getenv(workerEnv); addr != "" {
		os.Exit(runWorker(addr))
	}
	os.Exit(m.Run())
}

// endToEndUnits and the per-layer table are the metric contract of
// BENCHMARK.json; every run must emit each name with its unit.
var endToEndUnits = map[string]string{
	"setup_s": "s", "wall_s": "s", "cpu_s": "s", "alloc_mb": "MB", "peak_rss_mb": "MB",
	"paths_per_s": "1/s", "results_bytes": "bytes", "cold_s": "s", "warm_s": "s",
}

func tinyRun(t *testing.T, workload string, trace bool, want golden) *result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := run(ctx, config{
		workload: workload, seed: 3, seconds: time.Millisecond, trace: trace,
		tiny: true, outDir: t.TempDir(), want: want, log: testLog{t},
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, name, trace, goldenFull)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndUnits
			if trace {
				want = perLayerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
			}
		}
	}
}

func TestCorruptDigestFails(t *testing.T) {
	bad := golden{digests: map[string]string{}, incs: goldenFull.incs}
	for k, v := range goldenFull.digests {
		if strings.Contains(k, "Reference Switch") {
			v = "0" + v[1:]
		}
		bad.digests[k] = v
	}
	res := tinyRun(t, "flowmod-explore", false, bad)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest not reported: correct=%t failed=%d", res.Correct, res.Failed)
	}
}

// testLog routes the benchmark's failure lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}
