// Package mpi is a small message-passing runtime that simulates a
// distributed-memory parallel system inside one process, in the spirit of
// the paper's own setup ("the distributed memory behavior is simulated by
// the operating system through MPI on a 2-processor-12-core machine",
// Section 5.2).
//
// Each rank runs as a goroutine with private state; ranks exchange only
// byte-serialized messages over per-pair ordered channels, so there is no
// hidden memory sharing on the data path.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Message is one point-to-point transfer.
type Message struct {
	From, Tag int
	Data      []byte
}

// Network owns the channels connecting size ranks.
type Network struct {
	size int
	// queues[to][from] preserves per-pair ordering like MPI.
	queues [][]chan Message
}

// NewNetwork creates a network of the given size.
func NewNetwork(size int) *Network {
	if size < 1 {
		panic("mpi: network size must be >= 1")
	}
	n := &Network{size: size, queues: make([][]chan Message, size)}
	for to := 0; to < size; to++ {
		n.queues[to] = make([]chan Message, size)
		for from := 0; from < size; from++ {
			n.queues[to][from] = make(chan Message, 64)
		}
	}
	return n
}

// Comm returns the communicator for one rank.
func (n *Network) Comm(rank int) *Comm {
	if rank < 0 || rank >= n.size {
		panic(fmt.Sprintf("mpi: rank %d out of range", rank))
	}
	return &Comm{net: n, rank: rank}
}

// Run spawns fn on every rank of a fresh network and waits for all ranks
// to return.
func Run(size int, fn func(c *Comm)) {
	RunOn(NewNetwork(size), fn)
}

// RunOn spawns fn on every rank of the given network and waits.
func RunOn(n *Network, fn func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < n.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(n.Comm(rank))
		}(r)
	}
	wg.Wait()
}

// Comm is one rank's endpoint.
type Comm struct {
	net  *Network
	rank int
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.net.size }

// Send transmits data to rank `to` with a tag. The payload is copied, so
// the caller may reuse its buffer: ranks never share backing arrays.
func (c *Comm) Send(to, tag int, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.net.queues[to][c.rank] <- Message{From: c.rank, Tag: tag, Data: cp}
}

// Recv blocks for the next message from rank `from` and verifies its tag.
func (c *Comm) Recv(from, tag int) []byte {
	m := <-c.net.queues[c.rank][from]
	if m.Tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d",
			c.rank, tag, from, m.Tag))
	}
	return m.Data
}

// Float64 payload helpers (little-endian, like a real wire format).

// EncodeFloat64s serializes xs.
func EncodeFloat64s(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// DecodeFloat64s deserializes a float64 payload.
func DecodeFloat64s(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// SendFloat64s sends a float64 slice.
func (c *Comm) SendFloat64s(to, tag int, xs []float64) {
	c.Send(to, tag, EncodeFloat64s(xs))
}

// RecvFloat64s receives a float64 slice.
func (c *Comm) RecvFloat64s(from, tag int) []float64 {
	return DecodeFloat64s(c.Recv(from, tag))
}

// SendInts sends an int slice (as int64 on the wire).
func (c *Comm) SendInts(to, tag int, xs []int) {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(x)))
	}
	c.Send(to, tag, b)
}

// RecvInts receives an int slice.
func (c *Comm) RecvInts(from, tag int) []int {
	b := c.Recv(from, tag)
	xs := make([]int, len(b)/8)
	for i := range xs {
		xs[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return xs
}
