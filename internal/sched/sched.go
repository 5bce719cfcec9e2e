// Package sched is the one scheduler every parallel loop of the library
// runs on: the matrix fills, the dense assembly and operator applies, the
// factorizations' trailing updates and the per-column, per-structure and
// per-sweep-chunk fan-outs above them.
//
// There is one mechanism. A Map call is a job — n tasks, a function and
// a claim counter — and whoever works on it claims the next index from
// the counter and runs it until the counter runs out: OpenMP's
// schedule(dynamic), the balance refinement of paper Section 3. The
// executors differ only in who the claimers are:
//
//   - Local(d) is the caller plus min(d, n)-1 throwaway goroutines;
//   - Pool is a persistent worker set that many concurrent Map calls
//     share: each worker joins the oldest job with unclaimed tasks, and
//     the caller claims alongside them;
//   - Budgeted(ex, k) caps one Map call at k claimers of ex.
//
// Because the caller always claims, a Map never waits for a free worker:
// it completes on the caller alone if it must, so a task may itself call
// Map, on the same executor or any other.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor runs n indexed tasks, distributing them over workers.
// Implementations guarantee every task index in [0, n) runs exactly once
// and that Map does not return before all tasks completed.
type Executor interface {
	Map(n int, fn func(task int))
}

// falseSharingRange is the padding granularity separating mutable state
// that different cores hammer: the 64-byte cache lines of current
// amd64/arm64 parts, doubled for the adjacent-line spatial prefetcher.
const falseSharingRange = 128

// job is one Map call in flight. Every claimer adds to next on every
// claim and to left on every completion, so each counter has a cache-line
// pair to itself, away from the header the claimers only read.
type job struct {
	n    int
	fn   func(task int)
	done chan struct{} // closed by whoever completes the last task
	_    [falseSharingRange]byte
	next atomic.Int64 // tasks claimed so far
	_    [falseSharingRange - 8]byte
	left atomic.Int64 // tasks not yet completed
	_    [falseSharingRange - 8]byte
}

func newJob(n int, fn func(task int)) *job {
	j := &job{n: n, fn: fn, done: make(chan struct{})}
	j.left.Store(int64(n))
	return j
}

// work claims and runs tasks until none is unclaimed.
func (j *job) work() {
	for {
		t := int(j.next.Add(1)) - 1
		if t >= j.n {
			return
		}
		j.fn(t)
		if j.left.Add(-1) == 0 {
			close(j.done)
		}
	}
}

// local is the throwaway-goroutine executor.
type local struct{ workers int }

// Local returns an executor that runs each Map call on the caller plus
// up to d-1 goroutines spawned for the call (d <= 0 means GOMAXPROCS).
func Local(d int) Executor {
	if d <= 0 {
		d = runtime.GOMAXPROCS(0)
	}
	return local{workers: d}
}

// Map implements Executor. With one worker or one task it is a plain
// loop in the caller.
func (l local) Map(n int, fn func(task int)) {
	nw := min(l.workers, n)
	if nw <= 1 {
		inline(n, fn)
		return
	}
	j := newJob(n, fn)
	for w := 1; w < nw; w++ {
		go j.work()
	}
	j.work()
	<-j.done
}

// Budgeted wraps an executor so that every Map call occupies at most k
// of its workers at once: the call submits k feeder tasks that claim the
// n real tasks from a shared counter. A long-running service hands each
// request a Budgeted view of one shared persistent Pool, so concurrent
// requests divide the pool instead of each spreading across all of it.
// k = 1 runs inline in the caller without touching the executor at all;
// k <= 0 returns ex unwrapped (no budget).
func Budgeted(ex Executor, k int) Executor {
	if k <= 0 || ex == nil {
		return ex
	}
	return budgeted{ex: ex, k: k}
}

type budgeted struct {
	ex Executor
	k  int
}

// Map implements Executor, on at most k workers of ex.
func (b budgeted) Map(n int, fn func(task int)) {
	k := min(b.k, n)
	if k <= 1 {
		inline(n, fn)
		return
	}
	var next atomic.Int64
	b.ex.Map(k, func(int) {
		for {
			t := int(next.Add(1)) - 1
			if t >= n {
				return
			}
			fn(t)
		}
	})
}

// Pool is a persistent worker set. Concurrent Map calls from any number
// of goroutines — tasks of the pool's own jobs included — share the same
// workers; each call claims tasks of its own job alongside them and
// returns when that job is done. Close stops the workers.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*job // in arrival order; exhausted ones are dropped by the workers
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a pool of d workers (d <= 0 means GOMAXPROCS).
func NewPool(d int) *Pool {
	if d <= 0 {
		d = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: d}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(d)
	for w := 0; w < d; w++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Map implements Executor: it posts the job for the workers to join,
// claims tasks itself and blocks until all ran. On a closed pool the
// caller is the only claimer.
func (p *Pool) Map(n int, fn func(task int)) {
	if n <= 0 {
		return
	}
	j := newJob(n, fn)
	p.mu.Lock()
	if !p.closed {
		p.jobs = append(p.jobs, j)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	j.work()
	<-j.done
}

// Close stops the workers once no posted job has unclaimed tasks.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker is the main loop of a pool worker: join the oldest job with
// unclaimed tasks, sleep when there is none.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if j := p.oldest(); j != nil {
			p.mu.Unlock()
			j.work()
			p.mu.Lock()
		} else if p.closed {
			break
		} else {
			p.cond.Wait()
		}
	}
	p.mu.Unlock()
}

// oldest returns the first posted job with unclaimed tasks, or nil, and
// drops the fully claimed ones (their callers hold them until the last
// task completes). A worker sleeps only after a scan that found nothing
// and every Map wakes the sleepers, so an idle pool's list is empty and
// retains no caller's closure. The caller holds p.mu.
func (p *Pool) oldest() *job {
	live := p.jobs[:0]
	for _, j := range p.jobs {
		if j.next.Load() < int64(j.n) {
			live = append(live, j)
		}
	}
	clear(p.jobs[len(live):])
	p.jobs = live
	if len(live) == 0 {
		return nil
	}
	return live[0]
}
