package sched

import "sync/atomic"

// MapOrInline runs n tasks on ex, or inline in index order when ex is
// nil (the serial mode of the operators: no closure scheduling, so hot
// paths stay allocation-free).
func MapOrInline(ex Executor, n int, fn func(task int)) {
	if ex == nil {
		inline(n, fn)
		return
	}
	ex.Map(n, fn)
}

// inline runs the tasks in index order in the caller: no job, no
// goroutine, no allocation.
func inline(n int, fn func(task int)) {
	for t := 0; t < n; t++ {
		fn(t)
	}
}

// Scratch manages the per-call mutable state of concurrency-safe
// operators (fmm/pfft Apply buffers, preconditioner solve buffers): the
// common one-call-at-a-time case reuses one dedicated warm value, so the
// steady state is allocation-free; a call that finds it busy allocates a
// value of its own, which Release drops. T must be a comparable handle
// (typically a pointer).
type Scratch[T comparable] struct {
	newFn func() T
	own   T
	// busy is CAS-hammered by every concurrent Acquire (one per operator
	// Apply), so it lives on its own cache-line pair: sharing a line with
	// newFn/own would invalidate those read-only fields on every CAS, and
	// sharing with whatever the allocator puts after the Scratch would
	// contend with that object's traffic.
	_    [falseSharingRange]byte
	busy atomic.Bool
	_    [falseSharingRange - 1]byte
}

// NewScratch builds the manager and warms the dedicated value.
func NewScratch[T comparable](newFn func() T) *Scratch[T] {
	return &Scratch[T]{newFn: newFn, own: newFn()}
}

// Acquire returns a value for exclusive use until Release.
func (s *Scratch[T]) Acquire() T {
	if s.busy.CompareAndSwap(false, true) {
		return s.own
	}
	return s.newFn()
}

// Release returns a value obtained from Acquire.
func (s *Scratch[T]) Release(v T) {
	if v == s.own {
		s.busy.Store(false)
	}
}
