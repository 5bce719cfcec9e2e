//go:build race

package plan

// raceBuild reports a -race build, under which sync.Pool drops a share of
// what it is given at random: a Put is not always the next Get's.
const raceBuild = true
