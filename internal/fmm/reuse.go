package fmm

import (
	"parbem/internal/geom"
)

// Topology is the geometry phase of operator construction: the octree
// over panel centroids plus the near/far interaction lists produced by
// the dual-tree traversal. It involves no kernel integration, costs
// O(N log N), and is the stage artifact the staged extraction plans
// (internal/plan) rebuild per geometry variant.
type Topology struct {
	t     *tree
	inter *interactions
}

// NewTopology builds the octree and interaction lists for the given
// panelization (Theta and NearFactor are the options consumed; the rest
// are ignored).
func NewTopology(panels []geom.Panel, opt Options) *Topology {
	opt.defaults()
	t := buildTree(panels, leafSize)
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

// Reuse adopts a stored near field instead of building one. A geometry
// variant's near field is always built: every exact entry is its symmetry
// class's value (assembly.InternPanels), so a class the table has met costs
// a lookup and never an integration.
type Reuse struct {
	// Vals, when non-nil, adopts a complete near-field CSR value array
	// captured by NearVals from an operator built over bit-identical
	// panels and options (the disk artifact store's path, keyed by a
	// content hash of exact geometry + options in internal/plan). The
	// CSR layout is a deterministic function of the topology, so the
	// stored values land at the same offsets a fresh integration would
	// fill. Ignored — a fresh build — when its length disagrees with the
	// CSR being built.
	Vals []float64
}
