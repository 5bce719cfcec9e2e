package fmm

import (
	"sort"

	"parbem/internal/geom"
)

// Topology is the geometry phase of operator construction: the octree
// over panel centroids plus the near/far interaction lists produced by
// the dual-tree traversal. It involves no kernel integration, costs
// O(N log N), and is the stage artifact the staged extraction plans
// (internal/plan) rebuild per geometry variant while reusing the far
// more expensive near-field integrals underneath.
type Topology struct {
	t     *tree
	inter *interactions
}

// NewTopology builds the octree and interaction lists for the given
// panelization (LeafSize, Theta and NearFactor are the options
// consumed; the rest are ignored).
func NewTopology(panels []geom.Panel, opt Options) *Topology {
	opt.defaults()
	t := buildTree(panels, opt.LeafSize)
	return &Topology{t: t, inter: t.buildInteractions(opt.Theta, opt.NearFactor)}
}

// Leaves returns the number of octree leaves (diagnostics).
func (tp *Topology) Leaves() int {
	n := 0
	for id := range tp.t.nodes {
		if tp.t.nodes[id].leaf {
			n++
		}
	}
	return n
}

// Reuse requests delta-aware near-field construction: exact-Galerkin
// entries whose panel pair moved rigidly as a unit since Prev was built
// are copied from Prev instead of re-integrated.
type Reuse struct {
	// Prev is the operator built for the previous geometry variant.
	// Panels must correspond 1:1 by index (same count, same conductor
	// layout; see geom.Diff).
	Prev *Operator
	// Class[i] groups panels by their exact rigid translation since
	// Prev: two panels with the same non-negative class have
	// bit-identical relative geometry, so their Galerkin integral is
	// unchanged. Class[i] < 0 marks panels whose geometry changed.
	Class []int32
	// Vals, when non-nil, adopts a complete near-field CSR value array
	// captured by NearVals from an operator built over bit-identical
	// panels and options (the disk artifact store's path, keyed by a
	// content hash of exact geometry + options in internal/plan). The
	// CSR layout is a deterministic function of the topology, so the
	// stored values land at the same offsets a fresh integration would
	// fill. Ignored — degrading to the Prev/Class path or a fresh
	// build — when its length disagrees with the CSR being built.
	Vals []float64
}

// valid reports whether reuse is applicable for an operator being built
// with the given options: aligned panel sets and integral-identical
// settings (the copied values bake in the kernel configuration and the
// 1/(4*pi*eps) scale).
func (r *Reuse) valid(n int, opt *Options) bool {
	if r == nil || r.Prev == nil || len(r.Class) != n || r.Prev.Dim() != n {
		return false
	}
	p := &r.Prev.opt
	return p.Eps == opt.Eps && *p.Cfg == *opt.Cfg
}

// nearLookup resolves previous-variant near entries by panel pair. The
// previous CSR is addressed through the previous tree's leaf layout
// (row offset of the source leaf block plus the source panel's position
// inside its leaf), so each probe is one binary search over a leaf's
// near list.
type nearLookup struct {
	prev  *Operator
	class []int32
	pos   []int32 // panel -> position within its previous leaf
}

func newNearLookup(r *Reuse) *nearLookup {
	prev := r.Prev
	l := &nearLookup{prev: prev, class: r.Class, pos: make([]int32, prev.Dim())}
	for id := range prev.t.nodes {
		nd := &prev.t.nodes[id]
		if !nd.leaf {
			continue
		}
		for k, pi := range prev.t.perm[nd.lo:nd.hi] {
			l.pos[pi] = int32(k)
		}
	}
	return l
}

// value returns the previous variant's exact-Galerkin entry for the
// (target, source) panel pair, or ok=false when the pair moved
// relative to each other or the previous operator did not integrate it
// exactly.
func (l *nearLookup) value(pi, pj int32) (float64, bool) {
	ci := l.class[pi]
	if ci < 0 || ci != l.class[pj] {
		return 0, false
	}
	prev := l.prev
	lst := prev.lists.nearBy[prev.t.leafOf[pi]]
	lfJ := prev.t.leafOf[pj]
	k := sort.Search(len(lst), func(k int) bool { return lst[k].leaf >= lfJ })
	if k == len(lst) || lst[k].leaf != lfJ || !lst[k].galerkin {
		return 0, false
	}
	return prev.nearVal[prev.nearOff[pi]+int64(lst[k].off)+int64(l.pos[pj])], true
}
