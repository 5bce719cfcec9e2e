package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkMap verifies that Map runs every task exactly once.
func checkMap(t *testing.T, ex Executor, n int) {
	t.Helper()
	counts := make([]int32, n)
	ex.Map(n, func(task int) {
		atomic.AddInt32(&counts[task], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestLocalRunsAllTasks(t *testing.T) {
	for _, d := range []int{1, 2, 4, 17} {
		for _, n := range []int{0, 1, 2, 5, 100} {
			checkMap(t, Local(d), n)
		}
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 3, 50, 200} {
		checkMap(t, p, n)
	}
}

func TestPoolConcurrentJobs(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				p.Map(37, func(task int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*5*37 {
		t.Fatalf("ran %d tasks, want %d", got, 8*5*37)
	}
}

func TestPoolReusableAfterIdle(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	checkMap(t, p, 10)
	// The pool's workers are now asleep; a second job must wake them.
	checkMap(t, p, 10)
}

func TestBlockedTaskDoesNotSerialize(t *testing.T) {
	// One task that blocks whoever claimed it must not hold up the rest:
	// the other claimers drain everything else from the shared counter.
	p := NewPool(2)
	defer p.Close()
	block := make(chan struct{})
	var fast atomic.Int64
	done := make(chan struct{})
	go func() {
		p.Map(20, func(task int) {
			if task == 0 {
				<-block
				return
			}
			fast.Add(1)
		})
		close(done)
	}()
	// All non-blocking tasks finish even though task 0 occupies a worker.
	for fast.Load() != 19 {
		runtime.Gosched()
	}
	close(block)
	<-done
}

func TestMapOnClosedPoolRunsInline(t *testing.T) {
	p := NewPool(2)
	p.Close()
	checkMap(t, p, 7)
}

func TestBudgetedRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, k := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			checkMap(t, Budgeted(p, k), n)
		}
	}
	// k <= 0 means no budget: the executor passes through unwrapped.
	if Budgeted(p, 0) != Executor(p) {
		t.Error("Budgeted(p, 0) did not return the pool unwrapped")
	}
}

// TestBudgetedCapsConcurrency asserts a Budgeted view never has more
// than k of its tasks in flight, even on a larger pool.
func TestBudgetedCapsConcurrency(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	const k = 3
	var cur, peak atomic.Int64
	Budgeted(p, k).Map(64, func(int) {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
	})
	if got := peak.Load(); got > k {
		t.Errorf("budget %d exceeded: peak concurrency %d", k, got)
	}
}

// TestBudgetedConcurrentRequests runs several budgeted Map calls at
// once over one shared pool (the service sharing pattern).
func TestBudgetedConcurrentRequests(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ran atomic.Int64
			Budgeted(p, 2).Map(40, func(int) { ran.Add(1) })
			if ran.Load() != 40 {
				t.Error("budgeted map lost tasks")
			}
		}()
	}
	wg.Wait()
}

// TestNestedMapOnBusyPool occupies every worker of a pool with a task
// that itself calls Map on that pool. No worker is free to help, so the
// inner calls complete only because each caller claims its own tasks.
// outer = workers is the case that deadlocked the deque scheduler (its
// callers only waited); outer = workers+1 also holds the outer caller in
// a task, so the barrier passes only once every worker is inside one.
func TestNestedMapOnBusyPool(t *testing.T) {
	const workers, inner = 3, 25
	for _, outer := range []int{workers, workers + 1} {
		p := NewPool(workers)
		var ran, arrived atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Map(outer, func(int) {
				arrived.Add(1)
				for arrived.Load() < int64(outer) {
					runtime.Gosched()
				}
				p.Map(inner, func(int) { ran.Add(1) })
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("outer=%d: nested Map on a fully occupied pool did not complete (%d of %d inner tasks ran)",
				outer, ran.Load(), outer*inner)
		}
		p.Close()
		if got := ran.Load(); got != int64(outer*inner) {
			t.Errorf("outer=%d: ran %d inner tasks, want %d", outer, got, outer*inner)
		}
	}
}

// TestExactlyOnceConcurrentNested hammers each executor with concurrent
// Map calls whose tasks call Map on the same executor again, and counts
// every (call, outer, inner) index: each must run exactly once.
func TestExactlyOnceConcurrentNested(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	closed := NewPool(2)
	closed.Close()
	for _, tc := range []struct {
		name string
		ex   Executor
	}{
		{"local", Local(3)},
		{"pool", pool},
		{"budgeted", Budgeted(pool, 2)},
		{"closed-pool", closed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const callers, outer, inner = 4, 9, 11
			counts := make([]int32, callers*outer*inner)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					tc.ex.Map(outer, func(o int) {
						tc.ex.Map(inner, func(i int) {
							atomic.AddInt32(&counts[(c*outer+o)*inner+i], 1)
						})
					})
				}(c)
			}
			wg.Wait()
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
			}
		})
	}
}
