// Package mpi is the distributed-memory system setup of the paper's
// Section 5.2 ("the distributed memory behavior is simulated by the
// operating system through MPI on a 2-processor-12-core machine"), run as
// a partition of the one template fill: D ranks, one thread and one
// k-partition each, every rank with a private copy of the template
// definitions, a private class table and a partial matrix of its own,
// which the main rank adds into P in rank order (Figures 5 and 6).
//
// Ranks share no mutable state, so what a real rank would send is a
// count, not a transfer: the packed rows of its partial, 8 bytes each,
// and its work counters.
package mpi

// Network is the set of ranks a distributed fill runs on.
type Network struct {
	size int
}

// NewNetwork returns a network of the given number of ranks.
func NewNetwork(size int) *Network {
	if size < 1 {
		panic("mpi: network size must be >= 1")
	}
	return &Network{size: size}
}
