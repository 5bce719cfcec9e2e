package faultpoint

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	if err := Configure(""); err != nil {
		t.Fatal(err)
	}
	if armed.Load() {
		t.Fatal("armed with empty spec")
	}
	if err := Hit("anything"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
}

func TestErrorAction(t *testing.T) {
	defer Configure("")
	if err := Configure("a.b:error"); err != nil {
		t.Fatal(err)
	}
	if err := Hit("a.b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed point returned %v, want ErrInjected", err)
	}
	if err := Hit("other"); err != nil {
		t.Fatalf("unarmed point returned %v", err)
	}
}

func TestNthTrigger(t *testing.T) {
	defer Configure("")
	if err := Configure("p@3:error"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Hit("p")
		if i == 3 && !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: got %v, want injected error", i, err)
		}
		if i != 3 && err != nil {
			t.Fatalf("hit %d: got %v, want nil", i, err)
		}
	}
}

func TestSleepAction(t *testing.T) {
	defer Configure("")
	if err := Configure("slow:sleep=20ms"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := Hit("slow"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Errorf("sleep point returned after %v, want >= 20ms", d)
	}
}

func TestBadSpecs(t *testing.T) {
	defer Configure("")
	for _, spec := range []string{"noaction", "p:boom", "p:sleep=xyz", "p@0:error", "p@x:error", ":error"} {
		if err := Configure(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
		if armed.Load() {
			t.Errorf("spec %q left points armed after rejection", spec)
		}
	}
}

func TestMultiPointSpec(t *testing.T) {
	defer Configure("")
	if err := Configure("a:error, b:sleep=1ms"); err != nil {
		t.Fatal(err)
	}
	if err := Hit("a"); !errors.Is(err, ErrInjected) {
		t.Errorf("point a: %v", err)
	}
	if err := Hit("b"); err != nil {
		t.Errorf("point b: %v", err)
	}
}
