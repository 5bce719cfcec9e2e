package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestFalseSharingPadding pins the padded layouts: a job's two counters,
// next (bumped on every claim) and left (on every completion), are a
// false-sharing range apart from each other, from the read-only header
// the claimers load on every task, and from whatever the allocator puts
// after the job; a Scratch's busy flag is as far from the Scratch's end.
func TestFalseSharingPadding(t *testing.T) {
	var j job
	headerEnd := unsafe.Offsetof(j.done) + unsafe.Sizeof(j.done)
	for _, gap := range []struct {
		name     string
		from, to uintptr
	}{
		{"header -> next", headerEnd, unsafe.Offsetof(j.next)},
		{"next -> left", unsafe.Offsetof(j.next), unsafe.Offsetof(j.left)},
		{"left -> end", unsafe.Offsetof(j.left), unsafe.Sizeof(j)},
	} {
		if gap.to-gap.from < falseSharingRange {
			t.Errorf("job: %s is %d bytes (want >= %d)", gap.name, gap.to-gap.from, falseSharingRange)
		}
	}
	var s Scratch[*int]
	if unsafe.Sizeof(s)-unsafe.Offsetof(s.busy) < falseSharingRange {
		t.Errorf("Scratch.busy only %d bytes from the end (want >= %d)",
			unsafe.Sizeof(s)-unsafe.Offsetof(s.busy), falseSharingRange)
	}
}

// TestScratchOverflow pins the overflow path: a value held while another
// Acquire runs is never handed out twice, releasing the value that call
// allocated leaves the dedicated one as it was, and one call at a time
// allocates nothing.
func TestScratchOverflow(t *testing.T) {
	s := NewScratch(func() *int { return new(int) })
	own := s.Acquire()
	extra := s.Acquire()
	if own == extra {
		t.Fatal("two held Acquires returned one value")
	}
	s.Release(extra)
	if v := s.Acquire(); v == own {
		t.Fatal("releasing the overflow value freed the held dedicated one")
	} else {
		s.Release(v)
	}
	s.Release(own)
	if v := s.Acquire(); v != own {
		t.Error("the dedicated value is not handed out once free")
	} else {
		s.Release(v)
	}
	if n := testing.AllocsPerRun(100, func() { s.Release(s.Acquire()) }); n != 0 {
		t.Errorf("Acquire/Release one at a time: %v allocs, want 0", n)
	}
}

// contentionWorkers enumerates the worker counts of the contention
// benches: 1 (the uncontended floor), then powers of two up to
// GOMAXPROCS (and always at least 2, so the delta vs serial is visible
// even when a 1-CPU runner oversubscribes).
func contentionWorkers() []int {
	ws := []int{1, 2}
	for w := 4; w <= runtime.GOMAXPROCS(0); w *= 2 {
		ws = append(ws, w)
	}
	return ws
}

// BenchmarkMapContention measures the scheduler's per-task overhead
// under maximal contention: many near-empty tasks, so every claim and
// every completion is an atomic add on a counter all claimers share.
// It is the micro-bench the job's cache-line padding is judged by.
func BenchmarkMapContention(b *testing.B) {
	const tasks = 4096
	for _, w := range contentionWorkers() {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Map(tasks, func(t int) { sink.Add(int64(t & 1)) })
			}
			b.ReportMetric(float64(b.N)*tasks/b.Elapsed().Seconds()/1e6, "Mtasks/s")
		})
	}
}

// BenchmarkScratchContention measures concurrent Acquire/Release on one
// Scratch: the hot CAS on busy plus an allocation for each call that finds
// the dedicated value busy, the pattern of concurrent solves sharing one
// operator.
func BenchmarkScratchContention(b *testing.B) {
	for _, w := range contentionWorkers() {
		b.Run(fmt.Sprintf("g=%d", w), func(b *testing.B) {
			s := NewScratch(func() *[64]float64 { return new([64]float64) })
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						v := s.Acquire()
						v[0]++
						s.Release(v)
					}
				}()
			}
			wg.Wait()
		})
	}
}
