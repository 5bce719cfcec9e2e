package linalg

import "parbem/internal/sched"

// parRowChunk is the row-block granularity of ParMulVec: large enough
// that each task amortizes scheduler overhead, small enough to
// load-balance.
const parRowChunk = 32

// ParMulVec computes dst = m * x with row blocks distributed over the
// executor. Falls back to the serial kernel when ex is nil. Results are
// bit-identical to MulVec (each row is one Dot in a fixed order).
func ParMulVec(ex sched.Executor, m *Dense, dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("linalg: ParMulVec dimension mismatch")
	}
	if ex == nil || m.Rows < 2*parRowChunk {
		m.MulVec(dst, x)
		return
	}
	chunks := (m.Rows + parRowChunk - 1) / parRowChunk
	ex.Map(chunks, func(c int) {
		lo := c * parRowChunk
		hi := lo + parRowChunk
		if hi > m.Rows {
			hi = m.Rows
		}
		for i := lo; i < hi; i++ {
			dst[i] = Dot(m.Row(i), x)
		}
	})
}
