// Package fmm is a from-scratch multipole-accelerated piecewise-constant
// BEM solver in the mold of FASTCAP [4], the first acceleration baseline
// the paper benchmarks against (references [1] and [7], Figure 8).
//
// # Architecture
//
// The operator is list-driven: all tree walking happens once, at
// construction time, and Apply is nothing but flat loops over
// precomputed int32 index slices.
//
//   - An octree over panel centroids (buildTree) gives every node a
//     contiguous [lo, hi) range of the permuted panel index array.
//   - A dual-tree traversal (buildInteractions) classifies every
//     target/source node pair exactly once: well-separated pairs become
//     M2L list entries attached to the target node; leaf pairs that fail
//     the acceptance criterion become near-field pairs, either "exact"
//     (adjacent within Options.NearFactor — closed-form Galerkin
//     integrals) or "point" (center monopole entries, the same
//     approximation the far field uses for marginal leaves).
//   - The near field is stored as one CSR matrix over panels. Each
//     unordered leaf-pair block is integrated once and scattered to both
//     sides (the Galerkin kernel is symmetric), in parallel on a
//     sched.Executor, with per-(row, segment) offsets precomputed so no
//     locking is needed.
//   - Apply runs an upward pass accumulating Cartesian moments (monopole,
//     dipole, quadrupole), converts source moments to local expansions on
//     each target node via the M2L lists, translates locals down the tree
//     (L2L), and evaluates local expansion plus near CSR row per panel
//     (L2P). All scratch state lives in a per-Apply buffer bundle, so
//     Apply allocates nothing after warmup and concurrent Applies (two
//     pipelines solving over one operator) are safe.
//
// Combined with GMRES (the solve stage of internal/plan) this gives the
// O(N)-style matvec whose limited parallel scalability the paper
// contrasts with the instantiable-basis solver.
package fmm

import (
	"math"
	"sort"

	"parbem/internal/geom"
)

// node is one octree box.
type node struct {
	center   geom.Vec3
	halfSize float64 // half edge length of the cube
	children [8]int32
	parent   int32
	// Panels covered: [lo, hi) into the permuted index array. For
	// internal nodes this is the whole subtree's range.
	lo, hi int32
	leaf   bool
}

// tree is an octree over panel centroids.
type tree struct {
	nodes  []node
	perm   []int32 // permuted panel indices; nodes own contiguous ranges
	leafOf []int32 // panel -> containing leaf node id
}

// buildTree constructs the octree with at most leafSize panels per leaf.
func buildTree(panels []geom.Panel, leafSize int) *tree {
	n := len(panels)
	centers := make([]geom.Vec3, n)
	lo := geom.Vec3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := geom.Vec3{X: math.Inf(-1), Y: math.Inf(-1), Z: math.Inf(-1)}
	for i, p := range panels {
		c := p.Center()
		centers[i] = c
		lo = geom.Vec3{X: math.Min(lo.X, c.X), Y: math.Min(lo.Y, c.Y), Z: math.Min(lo.Z, c.Z)}
		hi = geom.Vec3{X: math.Max(hi.X, c.X), Y: math.Max(hi.Y, c.Y), Z: math.Max(hi.Z, c.Z)}
	}
	center := lo.Add(hi).Scale(0.5)
	size := hi.Sub(lo)
	half := 0.5 * math.Max(size.X, math.Max(size.Y, size.Z))
	if half == 0 {
		half = 1e-12
	}
	half *= 1.0000001 // keep boundary centroids strictly inside

	t := &tree{
		perm:   make([]int32, n),
		leafOf: make([]int32, n),
	}
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	t.split(centers, center, half, 0, int32(n), leafSize, -1)
	return t
}

// split recursively partitions perm[lo:hi]; returns the node id.
func (t *tree) split(centers []geom.Vec3, center geom.Vec3, half float64, lo, hi int32, leafSize int, parent int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{center: center, halfSize: half, lo: lo, hi: hi, parent: parent})
	for i := range t.nodes[id].children {
		t.nodes[id].children[i] = -1
	}
	if int(hi-lo) <= leafSize || half < 1e-15 {
		t.nodes[id].leaf = true
		for _, pi := range t.perm[lo:hi] {
			t.leafOf[pi] = id
		}
		return id
	}
	// Bucket by octant.
	oct := func(pi int32) int {
		c := centers[pi]
		o := 0
		if c.X >= center.X {
			o |= 1
		}
		if c.Y >= center.Y {
			o |= 2
		}
		if c.Z >= center.Z {
			o |= 4
		}
		return o
	}
	seg := t.perm[lo:hi]
	sort.Slice(seg, func(a, b int) bool { return oct(seg[a]) < oct(seg[b]) })
	// Find octant boundaries.
	var bounds [9]int32
	bounds[0] = lo
	idx := lo
	for o := 0; o < 8; o++ {
		for idx < hi && oct(t.perm[idx]) == o {
			idx++
		}
		bounds[o+1] = idx
	}
	qh := half / 2
	for o := 0; o < 8; o++ {
		cl, ch := bounds[o], bounds[o+1]
		if ch == cl {
			continue
		}
		cc := center
		if o&1 != 0 {
			cc.X += qh
		} else {
			cc.X -= qh
		}
		if o&2 != 0 {
			cc.Y += qh
		} else {
			cc.Y -= qh
		}
		if o&4 != 0 {
			cc.Z += qh
		} else {
			cc.Z -= qh
		}
		child := t.split(centers, cc, qh, cl, ch, leafSize, id)
		t.nodes[id].children[o] = child
	}
	return id
}

// leaves returns the ids of all leaf nodes.
func (t *tree) leaves() []int32 {
	var out []int32
	for id := range t.nodes {
		if t.nodes[id].leaf {
			out = append(out, int32(id))
		}
	}
	return out
}

// boxDist returns the distance between the cubes of nodes a and b
// (0 when they touch or overlap). The gap is computed symmetrically —
// |ca-cb| - (ha+hb), not (|ca-cb| - ha) - hb — so boxDist(a, b) is
// bitwise equal to boxDist(b, a) and the near/galerkin classification
// of a leaf pair cannot depend on the traversal's visit order.
func (t *tree) boxDist(a, b int32) float64 {
	na, nb := &t.nodes[a], &t.nodes[b]
	var d2 float64
	for ax := geom.X; ax <= geom.Z; ax++ {
		ca := na.center.Component(ax)
		cb := nb.center.Component(ax)
		g := math.Abs(ca-cb) - (na.halfSize + nb.halfSize)
		if g > 0 {
			d2 += g * g
		}
	}
	return math.Sqrt(d2)
}
