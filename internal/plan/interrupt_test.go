package plan

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"parbem/internal/fmm"
	"parbem/internal/op"
)

// flipCtx is a context whose Err reports context.Canceled from its
// (after+1)-th call on: the checkpoint the extraction stops at is chosen
// by counting the checks before it, not by timing.
type flipCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestInterruptReachesCallerAsOpReport stops a plan build at a chosen
// checkpoint and pins the one stop report the caller gets: op's
// *Interrupted, its Stage the stage stopped, wrapping context.Canceled.
// Stopped in mid-GMRES it carries the iterations run, a residual in
// (0, 1] and the partial capacitance reduced from the iterate, which is
// exactly symmetric; stopped at the boundary before the fmm near field it
// carries none of them. Either way the plan installed nothing, so the
// same geometry extracts on the next call, bitwise as a fresh plan does.
// The counts follow the checks an extraction makes: one per stage
// boundary (discretize, topology, near-field on fmm and pfft, factorize),
// one on the solve's entry, one before GMRES starts and one per
// iteration.
func TestInterruptReachesCallerAsOpReport(t *testing.T) {
	const edge = 0.5e-6
	for _, tc := range []struct {
		name  string
		pipe  op.Options
		after int64
		stage string
	}{
		{"dense-krylov/mid-gmres", op.Options{Backend: op.BackendDense, Tol: 1e-10}, 12, "solve"},
		{"fmm/mid-gmres", op.Options{Backend: op.BackendFMM, Tol: 1e-10, FMM: &fmm.Options{Workers: 1}}, 12, "solve"},
		{"fmm/near-field", op.Options{Backend: op.BackendFMM, Tol: 1e-10, FMM: &fmm.Options{Workers: 1}}, 2, "near-field"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{MaxEdge: edge, Pipeline: tc.pipe}
			p, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			st := crossingAt(0.5e-6)
			_, err = p.ExtractCtx(&flipCtx{Context: context.Background(), after: tc.after}, st)
			var oi *op.Interrupted
			if !errors.As(err, &oi) || oi.Stage != tc.stage {
				t.Fatalf("want an *op.Interrupted at stage %q, got %v", tc.stage, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v does not wrap context.Canceled", err)
			}
			if tc.stage == "solve" {
				if oi.Iterations <= 0 || !(oi.Residual > 0 && oi.Residual <= 1) {
					t.Errorf("stopped after %d iterations at residual %g, want > 0 and in (0, 1]", oi.Iterations, oi.Residual)
				}
				c := oi.PartialC
				if c == nil {
					t.Fatal("no partial capacitance from a stop in mid-GMRES")
				}
				for i := 0; i < c.Rows; i++ {
					for j := 0; j < i; j++ {
						if math.Float64bits(c.At(i, j)) != math.Float64bits(c.At(j, i)) {
							t.Errorf("partial C[%d][%d] = %v, C[%d][%d] = %v", i, j, c.At(i, j), j, i, c.At(j, i))
						}
					}
				}
			} else if oi.Iterations != 0 || oi.PartialC != nil {
				t.Errorf("a stop before the solve reports %d iterations and a partial C", oi.Iterations)
			}

			res, err := p.ExtractCtx(context.Background(), st)
			if err != nil {
				t.Fatalf("the geometry after the interrupt: %v", err)
			}
			want := fresh(t, st, opt)
			for k, v := range res.C.Data {
				if math.Float64bits(v) != math.Float64bits(want.C.Data[k]) {
					t.Fatalf("C[%d] = %v after the interrupt, a fresh plan's %v", k, v, want.C.Data[k])
				}
			}
		})
	}
}

// TestResultFields pins what a plan result declares itself: the solve's
// op.Result, embedded, and what a plan adds to it. A field of op.Result
// copied in here would be a second copy to keep in step.
func TestResultFields(t *testing.T) {
	typ := reflect.TypeOf(Result{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	want := []string{"Result", "Panels", "NumConductors", "Reused", "Stages", "Total"}
	if !slices.Equal(got, want) {
		t.Errorf("plan.Result declares %v, want %v", got, want)
	}
	if f := typ.Field(0); !f.Anonymous || f.Type != reflect.TypeOf(&op.Result{}) {
		t.Errorf("plan.Result's first field is %s %v, want an embedded *op.Result", f.Name, f.Type)
	}
}
