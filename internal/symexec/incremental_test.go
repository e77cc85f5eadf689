package symexec

import (
	"testing"

	"github.com/soft-testing/soft/internal/sym"
)

// TestIncrementalDeterminism is the acceptance property for the session
// engine: exhaustive exploration must produce byte-identical results on
// per-worker assumption-stack sessions and on the fresh-solver-per-path
// reference engine, at workers 1 and 4. Sessions and guarded constraint
// reuse may only change how fast the tree burns down — never an answer, a
// model, or a counter the result serializes.
func TestIncrementalDeterminism(t *testing.T) {
	for name, h := range parallelHandlers() {
		t.Run(name, func(t *testing.T) {
			want := fingerprint((&Engine{Workers: 1, WantModels: true, FreshSolverPerPath: true}).Run(h))
			for _, workers := range []int{1, 4} {
				for _, fresh := range []bool{false, true} {
					e := &Engine{Workers: workers, WantModels: true, FreshSolverPerPath: fresh}
					if got := fingerprint(e.Run(h)); got != want {
						t.Fatalf("workers=%d fresh=%t diverged:\n--- want\n%s--- got\n%s",
							workers, fresh, want, got)
					}
				}
			}
		})
	}
}

// TestIncrementalSessionReuse checks the session engine actually reuses
// work: on a workload whose sibling paths share long constraint prefixes,
// the session must serve far more conjuncts from its activation cache than
// it encodes fresh.
func TestIncrementalSessionReuse(t *testing.T) {
	h := func(ctx *Context) {
		x := ctx.NewSym("x", 16)
		n := 0
		for i := 0; i < 6; i++ {
			if ctx.Branch(sym.EqConst(sym.Extract(x, i, i), 1)) {
				n++
			}
		}
		ctx.Emit(n)
	}
	res := (&Engine{Workers: 1, WantModels: true}).Run(h)
	if res.AssumptionSolves == 0 {
		t.Fatal("session run reported no assumption solves")
	}
	if res.ConstraintsReused <= res.AssumptionSolves/4 {
		t.Fatalf("expected heavy constraint reuse on shared prefixes, got %d reused over %d solves",
			res.ConstraintsReused, res.AssumptionSolves)
	}

	// The reference engine has no session to count.
	res = (&Engine{Workers: 1, WantModels: true, FreshSolverPerPath: true}).Run(h)
	if res.AssumptionSolves != 0 || res.ConstraintsReused != 0 {
		t.Fatalf("fresh-solver run reported session counters: %d/%d",
			res.AssumptionSolves, res.ConstraintsReused)
	}
}
