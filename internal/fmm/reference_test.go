package fmm

// refOperator is a frozen copy of the original recursive operator (the
// pre-interaction-list implementation): per-target-panel Barnes-Hut tree
// walks with adjacency-list membership checks, recomputed each Apply.
// It is kept test-only, as the accuracy and speed reference that
// TestFMMOperatorSpeedup measures the list-based operator against.

import (
	"math"
	"sync"

	"parbem/internal/geom"
	"parbem/internal/kernel"
)

type refOperator struct {
	panels []geom.Panel
	opt    Options
	t      *tree

	centers []geom.Vec3
	areas   []float64

	adj [][]int32 // per-leaf adjacency lists (indexed by node id)

	nearIdx [][]int32
	nearVal [][]float64

	mono []float64
	dip  [][3]float64
	quad [][6]float64

	charges []float64
	scale   float64
}

func newRefOperator(panels []geom.Panel, opt Options) *refOperator {
	opt.defaults()
	t := buildTree(panels, leafSize)

	op := &refOperator{
		panels:  panels,
		opt:     opt,
		t:       t,
		centers: make([]geom.Vec3, len(panels)),
		areas:   make([]float64, len(panels)),
		adj:     make([][]int32, len(t.nodes)),
		nearIdx: make([][]int32, len(panels)),
		nearVal: make([][]float64, len(panels)),
		mono:    make([]float64, len(t.nodes)),
		dip:     make([][3]float64, len(t.nodes)),
		quad:    make([][6]float64, len(t.nodes)),
		charges: make([]float64, len(panels)),
		scale:   1 / kernel.FourPiEps0,
	}
	for i, p := range panels {
		op.centers[i] = p.Center()
		op.areas[i] = p.Area()
	}

	// Leaf adjacency, as computeAdjacency did in the seed.
	leaves := t.leaves()
	for _, a := range leaves {
		for _, b := range leaves {
			limit := opt.NearFactor * math.Max(t.nodes[a].halfSize, t.nodes[b].halfSize) * 2
			if t.boxDist(a, b) <= limit {
				op.adj[a] = append(op.adj[a], b)
			}
		}
	}

	// Exact near-field assembly, parallel over leaves.
	var wg sync.WaitGroup
	sem := make(chan struct{}, opt.Workers)
	for _, lf := range leaves {
		wg.Add(1)
		sem <- struct{}{}
		go func(lf int32) {
			defer func() { <-sem; wg.Done() }()
			nd := &t.nodes[lf]
			for _, pi := range t.perm[nd.lo:nd.hi] {
				var idx []int32
				var val []float64
				for _, al := range op.adj[lf] {
					an := &t.nodes[al]
					for _, pj := range t.perm[an.lo:an.hi] {
						v := kernel.RectGalerkin(opt.Cfg, panels[pi].Rect, panels[pj].Rect)
						idx = append(idx, pj)
						val = append(val, op.scale*v)
					}
				}
				op.nearIdx[pi] = idx
				op.nearVal[pi] = val
			}
		}(lf)
	}
	wg.Wait()
	return op
}

func (op *refOperator) Dim() int { return len(op.panels) }

func (op *refOperator) isAdjacent(a, b int32) bool {
	for _, x := range op.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

func (op *refOperator) Apply(dst, x []float64) {
	for i := range op.charges {
		op.charges[i] = x[i] * op.areas[i]
	}
	op.upward(0)

	leaves := op.t.leaves()
	var wg sync.WaitGroup
	work := make(chan int32)
	for w := 0; w < op.opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lf := range work {
				op.evalLeaf(lf, dst, x)
			}
		}()
	}
	for _, lf := range leaves {
		work <- lf
	}
	close(work)
	wg.Wait()
}

func (op *refOperator) upward(id int32) {
	nd := &op.t.nodes[id]
	var mono float64
	var dip [3]float64
	var quad [6]float64
	if nd.leaf {
		for _, pi := range op.t.perm[nd.lo:nd.hi] {
			q := op.charges[pi]
			mono += q
			r := op.centers[pi].Sub(nd.center)
			dip[0] += q * r.X
			dip[1] += q * r.Y
			dip[2] += q * r.Z
			quad[0] += q * r.X * r.X
			quad[1] += q * r.Y * r.Y
			quad[2] += q * r.Z * r.Z
			quad[3] += q * r.X * r.Y
			quad[4] += q * r.X * r.Z
			quad[5] += q * r.Y * r.Z
		}
	} else {
		for _, ch := range nd.children {
			if ch < 0 {
				continue
			}
			op.upward(ch)
			cn := &op.t.nodes[ch]
			d := cn.center.Sub(nd.center)
			q := op.mono[ch]
			cd := op.dip[ch]
			cq := op.quad[ch]
			mono += q
			dip[0] += cd[0] + q*d.X
			dip[1] += cd[1] + q*d.Y
			dip[2] += cd[2] + q*d.Z
			quad[0] += cq[0] + 2*cd[0]*d.X + q*d.X*d.X
			quad[1] += cq[1] + 2*cd[1]*d.Y + q*d.Y*d.Y
			quad[2] += cq[2] + 2*cd[2]*d.Z + q*d.Z*d.Z
			quad[3] += cq[3] + cd[0]*d.Y + cd[1]*d.X + q*d.X*d.Y
			quad[4] += cq[4] + cd[0]*d.Z + cd[2]*d.X + q*d.X*d.Z
			quad[5] += cq[5] + cd[1]*d.Z + cd[2]*d.Y + q*d.Y*d.Z
		}
	}
	op.mono[id] = mono
	op.dip[id] = dip
	op.quad[id] = quad
}

func (op *refOperator) evalLeaf(lf int32, dst, x []float64) {
	nd := &op.t.nodes[lf]
	for _, pi := range op.t.perm[nd.lo:nd.hi] {
		var sum float64
		idx := op.nearIdx[pi]
		val := op.nearVal[pi]
		for k, pj := range idx {
			sum += val[k] * x[pj]
		}
		phi := op.evalFar(0, lf, op.centers[pi])
		dst[pi] = sum + op.scale*op.areas[pi]*phi
	}
}

func (op *refOperator) evalFar(id, tl int32, p geom.Vec3) float64 {
	nd := &op.t.nodes[id]
	if nd.leaf {
		if op.isAdjacent(tl, id) {
			return 0 // handled exactly
		}
		var sum float64
		for _, pj := range op.t.perm[nd.lo:nd.hi] {
			q := op.charges[pj]
			if q == 0 {
				continue
			}
			sum += q / p.Dist(op.centers[pj])
		}
		return sum
	}
	r := p.Sub(nd.center)
	dist := r.Norm()
	if dist > 2*nd.halfSize/op.opt.Theta {
		return op.evalMultipole(id, r, dist)
	}
	var sum float64
	for _, ch := range nd.children {
		if ch >= 0 {
			sum += op.evalFar(ch, tl, p)
		}
	}
	return sum
}

func (op *refOperator) evalMultipole(id int32, r geom.Vec3, dist float64) float64 {
	inv := 1 / dist
	inv2 := inv * inv
	inv3 := inv2 * inv
	inv5 := inv3 * inv2
	d := op.dip[id]
	q := op.quad[id]
	phi := op.mono[id]*inv + (d[0]*r.X+d[1]*r.Y+d[2]*r.Z)*inv3
	tr := q[0] + q[1] + q[2]
	rr := q[0]*r.X*r.X + q[1]*r.Y*r.Y + q[2]*r.Z*r.Z +
		2*(q[3]*r.X*r.Y+q[4]*r.X*r.Z+q[5]*r.Y*r.Z)
	phi += 0.5 * (3*rr - tr*dist*dist) * inv5
	return phi
}
