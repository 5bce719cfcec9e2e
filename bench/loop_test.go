package main

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"
)

// fakeInst is an instance whose ops do nothing but say which they were.
type fakeInst struct {
	nClients, nCycle int
	failAt           int // index of the op that faults; -1 = none
}

func (f *fakeInst) clients() int           { return f.nClients }
func (f *fakeInst) cycle() int             { return f.nCycle }
func (f *fakeInst) traceShape() (int, int) { return 1, 1 }
func (f *fakeInst) close()                 {}
func (f *fakeInst) probes(config, *recorder, []outcome, []outcome, map[string]float64) error {
	return nil
}
func (f *fakeInst) op(_ context.Context, i int, _ *recorder) outcome {
	o := outcome{class: strconv.Itoa(i)}
	if i == f.failAt {
		o.fault = errors.New("boom")
	}
	return o
}

// TestTimedLoopStopsOnWholeCycles: whatever the number of clients, the
// loop runs exactly the ops before the first cycle boundary at which the
// window and the minimum count are both met, and returns them in stream
// order.
func TestTimedLoopStopsOnWholeCycles(t *testing.T) {
	for _, clients := range []int{1, 3, 8} {
		ops, marks, _ := timedLoop(&fakeInst{nClients: clients, nCycle: 5, failAt: -1}, nil, 100, 0, 7, time.Second)
		if len(marks) != 3 {
			t.Fatalf("%d clients: %d CPU-time marks, want one per cycle and one at the end", clients, len(marks))
		}
		if len(ops) != 10 {
			t.Fatalf("%d clients: %d ops, want 10 (two cycles of 5 cover the 7 asked for)", clients, len(ops))
		}
		for i, o := range ops {
			if o.class != strconv.Itoa(100+i) || o.fault != nil {
				t.Fatalf("%d clients: op %d is %+v", clients, i, o)
			}
		}
	}
}

// TestTimedLoopStopsOnFault: no op starts after one has faulted.
func TestTimedLoopStopsOnFault(t *testing.T) {
	ops, _, _ := timedLoop(&fakeInst{nClients: 1, nCycle: 5, failAt: 3}, nil, 0, time.Hour, 1000, time.Second)
	if len(ops) != 4 || ops[3].fault == nil {
		t.Fatalf("%d ops, last %+v: want the loop to end with the faulted op 3", len(ops), ops[len(ops)-1])
	}
}
