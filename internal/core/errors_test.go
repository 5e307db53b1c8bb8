package fsai

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

func TestSetupReasonNames(t *testing.T) {
	cases := map[SetupReason]string{
		ReasonUnknown:         "unknown",
		ReasonBadInput:        "bad-input",
		ReasonNotSPD:          "not-spd",
		ReasonMissingDiagonal: "missing-diagonal",
		ReasonPatternBlowup:   "pattern-blowup",
		ReasonWorkerPanic:     "worker-panic",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String()=%q want %q", int(r), r.String(), want)
		}
	}
	for r := range cases {
		if got, want := r.Retryable(), r == ReasonNotSPD; got != want {
			t.Errorf("%v.Retryable()=%v want %v", r, got, want)
		}
	}
}

func TestSetupErrorBadInput(t *testing.T) {
	b := sparse.NewCOO(3, 4, 1)
	b.Add(0, 0, 1)
	_, err := Compute(b.ToCSR(), DefaultOptions())
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonBadInput {
		t.Fatalf("non-square matrix: err=%v", err)
	}
}

func TestSetupErrorNotSPD(t *testing.T) {
	a := laplace1D(20)
	// Flip one diagonal entry negative: the local Frobenius systems touching
	// it stop being positive definite.
	for k := a.RowPtr[7]; k < a.RowPtr[8]; k++ {
		if a.ColIdx[k] == 7 {
			a.Val[k] = -3
		}
	}
	opts := DefaultOptions()
	opts.Variant = VariantFSAI
	_, err := Compute(a, opts)
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonNotSPD {
		t.Fatalf("indefinite matrix: err=%v", err)
	}
	if !errors.Is(err, ErrNotSPD) {
		t.Errorf("SetupError should still wrap ErrNotSPD")
	}
	if !se.Reason.Retryable() {
		t.Errorf("not-spd must be retryable (diagonal shift)")
	}
	if se.Row < 0 {
		t.Errorf("not-spd should attribute the offending row, got %d", se.Row)
	}
	if !strings.Contains(se.Error(), "not-spd") {
		t.Errorf("error text lacks the reason: %q", se.Error())
	}
}

func TestSetupErrorMissingDiagonal(t *testing.T) {
	a := laplace1D(4)
	p := pattern.New(4, 4)
	for i := 0; i < 4; i++ {
		if i != 2 { // row 2 lacks its diagonal
			p.AppendCol(i)
		}
		p.CloseRow(i)
	}
	_, err := ComputeOnPattern(a, p, 1, nil)
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonMissingDiagonal || se.Row != 2 {
		t.Fatalf("missing diagonal: err=%v", err)
	}
}

func TestSetupErrorPatternBlowup(t *testing.T) {
	a := laplace1D(50)
	opts := DefaultOptions()
	opts.Variant = VariantSp
	opts.Filter = 0 // keep the whole extension
	opts.MaxPatternNNZFactor = 0.01
	_, err := Compute(a, opts)
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonPatternBlowup {
		t.Fatalf("blowup budget: err=%v", err)
	}
	if se.Reason.Retryable() {
		t.Errorf("pattern blowup is not shift-retryable")
	}

	// A permissive budget must not trip.
	opts.MaxPatternNNZFactor = 100
	if _, err := Compute(a, opts); err != nil {
		t.Fatalf("permissive budget failed: %v", err)
	}
}

func TestSetupErrorWorkerPanic(t *testing.T) {
	a := laplace1D(8)
	// An out-of-range column index makes the row task panic inside the pool;
	// the pool contains it and setup reports a typed worker-panic error.
	p := pattern.New(8, 8)
	for i := 0; i < 8; i++ {
		if i == 5 {
			p.AppendCol(-1)
		}
		p.AppendCol(i)
		p.CloseRow(i)
	}
	_, err := ComputeOnPattern(a, p, 2, nil)
	se, ok := AsSetupError(err)
	if !ok || se.Reason != ReasonWorkerPanic {
		t.Fatalf("worker panic: err=%v", err)
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("worker-panic SetupError should wrap *parallel.PanicError, got %v", err)
	}
}

func TestSetupErrorPrecalcWorkerPanic(t *testing.T) {
	// Nothing before the precalculation runs on the pool, so a worker hook
	// that panics fires inside a precalc row task; Compute must return the
	// contained panic as a typed worker-panic error rather than re-raise it.
	parallel.SetWorkerHook(func(int) { panic("injected precalc row panic") })
	defer parallel.SetWorkerHook(nil)
	a := laplace1D(40)
	for _, v := range []Variant{VariantSp, VariantFull} {
		for _, w := range []int{1, 2} {
			tr := telemetry.NewTracer(nil)
			opts := DefaultOptions()
			opts.Variant = v
			opts.Workers = w
			opts.Tracer = tr
			_, err := Compute(a, opts)
			se, ok := AsSetupError(err)
			if !ok || se.Reason != ReasonWorkerPanic {
				t.Fatalf("%v/%d workers: err=%v, want a worker-panic SetupError", v, w, err)
			}
			var pe *parallel.PanicError
			if !errors.As(err, &pe) || pe.Value != "injected precalc row panic" {
				t.Errorf("%v/%d workers: should wrap the *parallel.PanicError, got %v", v, w, err)
			}
			phases := tr.Report()[0].Children
			if last := phases[len(phases)-1].Name; last != PhasePrecalc {
				t.Errorf("%v/%d workers: setup stopped after phase %q, want %q", v, w, last, PhasePrecalc)
			}
		}
	}
}
