//go:build race

package pfft

// raceBuild reports a -race build, under which sync.Pool drops a share of
// what it is given at random, so the overflow line buffers of the grid's
// parallel transforms are reallocated and allocation counts mean nothing.
const raceBuild = true
