package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestScenarioCLI drives the scenario surface of the CLI: the listing,
// explore -scenario (with determinism across worker counts on the byte
// level), the bench-JSON merge, and a matrix with scenario columns warmed
// through a store.
func TestScenarioCLI(t *testing.T) {
	dir := t.TempDir()

	stdout, stderr, code := runCLI(t, "scenarios")
	if code != 0 {
		t.Fatalf("soft scenarios: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{"Add Modify", "Netplugin VXLAN", "gen:0 .."} {
		if !strings.Contains(stdout, want) {
			t.Errorf("scenarios listing misses %q:\n%s", want, stdout)
		}
	}

	// explore -scenario, sequential vs parallel: byte-identical results.
	seqOut := filepath.Join(dir, "seq.results")
	parOut := filepath.Join(dir, "par.results")
	bench := filepath.Join(dir, "bench.json")
	if _, stderr, code := runCLI(t, "explore", "-scenario", "Add Delete Probe", "-workers", "1", "-o", seqOut); code != 0 {
		t.Fatalf("explore -scenario -workers 1: exit %d\n%s", code, stderr)
	}
	// The bench file already holds an incremental object (recorded
	// before/after evidence no code writes any more): rewrites must carry
	// it through untouched.
	const recorded = `{"FlowMod/w1":{"workers":1,"paths":1333,"baseline_paths_per_sec":548.9,"incremental_paths_per_sec":1386.4,"speedup":2.53}}`
	if err := os.WriteFile(bench, []byte(`{"schema":"soft-bench-matrix v2","incremental":`+recorded+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := runCLI(t, "explore", "-scenario", "Add Delete Probe", "-workers", "4",
		"-bench-json", bench, "-o", parOut); code != 0 {
		t.Fatalf("explore -scenario -workers 4: exit %d\n%s", code, stderr)
	}
	seq, err := os.ReadFile(seqOut)
	if err != nil {
		t.Fatal(err)
	}
	par, err := os.ReadFile(parOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(normalizeElapsed(t, seq)) != string(normalizeElapsed(t, par)) {
		t.Fatal("scenario exploration differs between -workers 1 and -workers 4")
	}

	var benchDoc struct {
		Schema       string `json:"schema"`
		ScenarioCold map[string]struct {
			SolverStats *struct {
				AssumptionSolves int64 `json:"assumption_solves"`
			} `json:"solver_stats"`
		} `json:"scenario_cold"`
		ScenarioFamilies map[string]struct {
			Runs  int `json:"runs"`
			Paths int `json:"paths"`
		} `json:"scenario_families"`
		Incremental json.RawMessage `json:"incremental"`
	}
	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &benchDoc); err != nil {
		t.Fatalf("bench JSON: %v\n%s", err, data)
	}
	coldEntry, ok := benchDoc.ScenarioCold["Add Delete Probe/w4"]
	if !ok {
		t.Fatalf("bench JSON misses scenario_cold[\"Add Delete Probe/w4\"]:\n%s", data)
	}
	// Exploration runs on sessions: the run must have been answered by
	// assumption solves.
	if coldEntry.SolverStats == nil || coldEntry.SolverStats.AssumptionSolves == 0 {
		t.Fatalf("scenario_cold solver_stats not from a session run:\n%s", data)
	}
	if fam, ok := benchDoc.ScenarioFamilies["Add Delete Probe"]; !ok || fam.Runs == 0 || fam.Paths == 0 {
		t.Fatalf("bench JSON misses scenario_families[\"Add Delete Probe\"]:\n%s", data)
	}
	var gotInc, wantInc any
	if err := json.Unmarshal(benchDoc.Incremental, &gotInc); err != nil {
		t.Fatalf("bench JSON lost the recorded incremental object: %v\n%s", err, data)
	}
	if err := json.Unmarshal([]byte(recorded), &wantInc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotInc, wantInc) {
		t.Fatalf("bench rewrite changed the recorded incremental object:\n%s", data)
	}

	// Flag validation.
	if _, stderr, code := runCLI(t, "explore", "-scenario", "no such"); code != 2 || !strings.Contains(stderr, "unknown scenario") {
		t.Fatalf("explore -scenario bogus: exit %d\n%s", code, stderr)
	}
	if _, stderr, code := runCLI(t, "explore", "-scenario", "Add Modify", "-test", "Packet Out"); code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("explore -scenario -test: exit %d\n%s", code, stderr)
	}
	// -bench-json also accepts plain Table 1 test runs, keyed by test name.
	if _, stderr, code := runCLI(t, "explore", "-test", "Concrete", "-workers", "1",
		"-bench-json", bench, "-o", os.DevNull); code != 0 {
		t.Fatalf("explore -test -bench-json: exit %d\n%s", code, stderr)
	}
	testBench, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(testBench), `"Concrete/w1"`) {
		t.Fatalf("bench JSON misses test-keyed entry \"Concrete/w1\":\n%s", testBench)
	}
	if _, stderr, code := runCLI(t, "matrix", "-scenarios", "no such"); code != 2 || !strings.Contains(stderr, "unknown scenario") {
		t.Fatalf("matrix -scenarios bogus: exit %d\n%s", code, stderr)
	}

	// A matrix with a scenario column: cold run populates the store, warm
	// re-run hits the cache for every cell, reports byte-identical.
	storeDir := filepath.Join(dir, "store")
	coldReport := filepath.Join(dir, "cold.report")
	warmReport := filepath.Join(dir, "warm.report")
	args := []string{
		"matrix", "-agents", "ref,ovs", "-tests", "Stats Request",
		"-scenarios", "Add Modify", "-store", storeDir, "-code-version", "cli-test",
	}
	stdout, stderr, code = runCLI(t, append(args, "-o", coldReport)...)
	if code != 0 {
		t.Fatalf("cold matrix with scenarios: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{
		"4 cells (4 explored, 0 cached)",
		"cell ref / Add Modify:",
		"check Add Modify: ref vs ovs:",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("cold matrix output misses %q:\n%s", want, stdout)
		}
	}
	stdout, stderr, code = runCLI(t, append(args, "-o", warmReport)...)
	if code != 0 {
		t.Fatalf("warm matrix with scenarios: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "4 cells (0 explored, 4 cached)") {
		t.Errorf("warm matrix did not hit the cache for every cell:\n%s", stdout)
	}
	cold, err := os.ReadFile(coldReport)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmReport)
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != string(warm) {
		t.Fatal("warm scenario matrix report differs from cold run")
	}
}
