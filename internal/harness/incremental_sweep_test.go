package harness_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/soft-testing/soft/internal/agents/ovs"
	"github.com/soft-testing/soft/internal/agents/refswitch"
	"github.com/soft-testing/soft/internal/crosscheck"
	"github.com/soft-testing/soft/internal/group"
	"github.com/soft-testing/soft/internal/harness"
)

// The harness-level acceptance sweep for the session engine: whether an
// (agent, test) cell is explored on per-worker assumption-stack sessions
// or on the fresh-solver-per-path reference engine, at any worker count,
// the serialized results file — the artifact vendors exchange — must be
// byte-for-byte the file the sequential reference run writes, and the
// crosscheck verdicts derived from it must match exactly.

// solverMode is one cell of the sweep grid.
type solverMode struct {
	name    string
	fresh   bool
	workers int
}

func sweepModes() []solverMode {
	var modes []solverMode
	for _, workers := range []int{1, 4} {
		for _, fresh := range []bool{false, true} {
			name := fmt.Sprintf("w%d+sessions", workers)
			if fresh {
				name = fmt.Sprintf("w%d+fresh", workers)
			}
			modes = append(modes, solverMode{name: name, fresh: fresh, workers: workers})
		}
	}
	return modes
}

// serializeResult renders a result to the results-file bytes with the
// wall-clock field zeroed (the only legitimately run-dependent field).
func serializeResult(t *testing.T, res *harness.Result) []byte {
	t.Helper()
	res.Elapsed = 0
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExploreByteIdentityAcrossSolverModes(t *testing.T) {
	tt, ok := harness.TestByName("Stats Request")
	if !ok {
		t.Fatal("Stats Request test missing")
	}
	want := serializeResult(t, harness.Explore(refswitch.New(), tt, harness.Options{
		WantModels: true, Workers: 1, FreshSolverPerPath: true,
	}))
	for _, mode := range sweepModes() {
		got := serializeResult(t, harness.Explore(refswitch.New(), tt, harness.Options{
			WantModels:         true,
			Workers:            mode.workers,
			FreshSolverPerPath: mode.fresh,
		}))
		if !bytes.Equal(got, want) {
			t.Fatalf("mode %s: serialized result diverged from the sequential baseline", mode.name)
		}
	}
}

// renderReport flattens the deterministic crosscheck surface: verdict
// counts plus every inconsistency's canonical rendering.
func renderReport(rep *crosscheck.Report) string {
	var sb strings.Builder
	for _, inc := range rep.Inconsistencies {
		sb.WriteString(inc.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestCrossCheckByteIdentityAcrossSolverModes(t *testing.T) {
	tt, ok := harness.TestByName("Stats Request")
	if !ok {
		t.Fatal("Stats Request test missing")
	}
	run := func(fresh bool) string {
		opts := harness.Options{WantModels: true, Workers: 1, FreshSolverPerPath: fresh}
		ra := harness.Explore(refswitch.New(), tt, opts)
		rb := harness.Explore(ovs.New(), tt, opts)
		rep := crosscheck.Run(group.Paths(ra.Serialized()), group.Paths(rb.Serialized()), nil, 0)
		return renderReport(rep)
	}
	want := run(true)
	if got := run(false); got != want {
		t.Fatalf("crosscheck verdicts diverged under session exploration:\n--- want\n%s--- got\n%s", want, got)
	}
}

// BenchmarkExploreParallelIncremental is the session engine's before/after
// on the heaviest explore workload: the fresh-solver-per-path reference
// (mode-baseline) against one assumption-stack session per worker
// (mode-incremental, what ships). Results are byte-identical across both;
// paths/sec is the number to compare.
func BenchmarkExploreParallelIncremental(b *testing.B) {
	tt, ok := harness.TestByName("FlowMod")
	if !ok {
		b.Fatal("unknown test FlowMod")
	}
	for _, w := range []int{1, 4} {
		for _, fresh := range []bool{true, false} {
			name := fmt.Sprintf("workers-%d/mode-incremental", w)
			if fresh {
				name = fmt.Sprintf("workers-%d/mode-baseline", w)
			}
			w, fresh := w, fresh
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var paths int
				for i := 0; i < b.N; i++ {
					r := harness.Explore(refswitch.New(), tt, harness.Options{
						MaxPaths: 2000, Workers: w, FreshSolverPerPath: fresh,
					})
					paths = len(r.Paths)
				}
				b.ReportMetric(float64(paths), "paths")
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(paths)*float64(b.N)/sec, "paths/sec")
				}
			})
		}
	}
}
