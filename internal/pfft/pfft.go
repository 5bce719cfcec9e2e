// Package pfft is a from-scratch precorrected-FFT solver in the mold of
// Phillips & White [6] and its parallel variant [1], the second baseline
// the paper compares against: panel charges are projected onto a uniform
// grid, the grid potential is obtained by FFT convolution with the 1/r
// kernel, potentials are interpolated back at the panels, and close
// interactions are "precorrected" by replacing the inaccurate grid
// contribution with exact Galerkin entries.
//
// The grid data this method convolves is real — charges in, potentials
// out — so the convolution runs on internal/fft's real-to-complex
// half-spectrum grid (fft.RGrid, at float64 as RGrid3 and at float32
// as RGrid3F32): relative to a complex-to-complex grid, the work grid
// and the cached kernel spectrum take half the memory and the
// transforms half the flops.
//
// The operator matches the guarantees of its multipole sibling
// (internal/fmm): Apply is safe for concurrent use (per-Apply scratch is
// pooled, not locked), allocation-free after warmup in serial mode, and
// its projection and interpolation loops run on a sched.Executor when
// Workers > 1 or a shared Pool is supplied. The grid projection is
// parallelized over grid nodes through a precomputed node-to-panel
// adjacency (no write conflicts), the interpolation/precorrection over
// panel ranges, and the 3-D FFT convolution over independent grid lines
// (the fft grids inherit the operator's executor). It also exposes its
// precorrection clusters as near-field diagonal blocks for the
// pipeline's block-Jacobi preconditioner (internal/op).
package pfft

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"parbem/internal/assembly"
	"parbem/internal/fft"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/linalg"
	"parbem/internal/sched"
)

// Options tunes the precorrected-FFT operator.
type Options struct {
	// GridSpacing is the grid pitch h (0 = automatic: fit the structure
	// in at most MaxNodes nodes per axis, but no finer than half the
	// median panel edge).
	GridSpacing float64
	// MaxNodes caps the logical grid nodes per axis for automatic
	// spacing (default 48).
	MaxNodes int
	// NearRadius is the precorrection radius in units of h (default 3).
	NearRadius float64
	Workers    int // parallel workers when Pool is nil (default GOMAXPROCS)
	// Eps is the permittivity (0 = vacuum) and Cfg the kernel
	// configuration (nil = defaults). An extraction does not choose them
	// per backend: op.PFFTOptions fills both from the spec, whatever a
	// caller left here.
	Eps float64
	Cfg *kernel.Config
	// Pairs is the symmetry-class table the exact precorrection entries
	// are read from and added to (assembly.InternPanels; nil = a table of
	// this operator's own).
	Pairs *assembly.PairCache
	// Pool optionally supplies a shared persistent worker pool
	// (internal/sched); when nil, construction and Apply use a
	// throwaway sched.Local executor sized by Workers, or run inline
	// when Workers is 1.
	Pool *sched.Pool
	// Exec overrides Pool/Workers with an arbitrary executor — e.g. a
	// sched.Budgeted view of a shared pool, so a service caps how many
	// pool workers one request's operator occupies.
	Exec sched.Executor
}

func (o *Options) defaults() {
	if o.MaxNodes == 0 {
		o.MaxNodes = 48
	}
	if o.NearRadius == 0 {
		o.NearRadius = 3
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Eps == 0 {
		o.Eps = kernel.Eps0
	}
	if o.Cfg == nil {
		o.Cfg = kernel.DefaultConfig()
	}
}

// stencil is a panel's trilinear projection/interpolation footprint:
// 8 grid nodes and weights.
type stencil struct {
	idx [8]int32 // linear node indices in the logical grid
	w   [8]float64
}

// applyScratch is the per-Apply mutable state: panel charges and the
// padded FFT work grid (real, half-spectrum layout). Pooling it keeps
// Apply re-entrant (concurrent solves may share one Operator) and
// allocation-free after warmup.
type applyScratch struct {
	charges []float64
	grid    *fft.RGrid3
}

// applyChunk is the grid-node / panel batch size of the parallel Apply
// loops: coarse enough that executor task overhead stays negligible.
const applyChunk = 2048

// Operator is the precorrected-FFT matvec y = P x. It implements
// linalg.Matvec. Apply is safe for concurrent use.
type Operator struct {
	panels []geom.Panel
	opt    Options
	exec   sched.Executor // nil = run inline (serial)

	h          float64
	origin     geom.Vec3
	nx, ny, nz int // logical grid dims
	px, py, pz int // padded FFT dims (>= 2*logical, powers of two)

	// kernelHat is the forward r2c FFT of the 1/r kernel on the padded
	// grid (half spectrum: px*py*(pz/2+1) bins). It is immutable after
	// construction and shared across variants on a matching grid.
	kernelHat *fft.RGrid3

	sten    []stencil
	areas   []float64
	centers []geom.Vec3

	// Node-to-panel adjacency (CSR over logical nodes with at least one
	// panel in their footprint): the projection loop iterates nodes, so
	// parallel chunks never write the same grid entry.
	activeNodes []int32
	nodeOff     []int32
	nodePanel   []int32
	nodeW       []float64

	nearIdx   [][]int32
	nearVal   [][]float64 // exact - grid, pre-scaled
	nearExact [][]float64 // exact Galerkin, pre-scaled (near-block data)

	// cluster[i] is panel i's precorrection spatial-hash cell, the
	// near-block partition exposed to the preconditioner.
	cluster  []int32
	clusters [][]int32

	scale float64

	// kernelShared reports that kernelHat was adopted from a previous
	// variant's operator (same padded dims and spacing) instead of
	// re-transformed; nearFill is the pair work of the exact precorrection
	// entries read from the class table (fillMu guards it while the rows
	// fill).
	kernelShared bool
	nearFill     assembly.FillStats
	fillMu       sync.Mutex
	// topoTime / nearTime split construction into its topology phase
	// (grid sizing, kernel transform, stencils, node adjacency) and its
	// near-field phase (precorrection integration) for the staged
	// plans' per-stage telemetry.
	topoTime, nearTime time.Duration

	// scratch manages per-Apply buffers: warm dedicated value for the
	// one-Apply-at-a-time case, pooled overflow for concurrent Applies.
	scratch *sched.Scratch[*applyScratch]

	// mixed is the optional float32 mirror (see mixed.go), built once on
	// the first EnableMixed call.
	mixed     *mixedState
	mixedOnce sync.Once
}

// Reuse offers construction what another build already holds. The
// precorrection of a geometry variant is always built: every exact entry
// is its symmetry class's value (assembly.InternPanels), so a class the
// table has met costs a lookup and never an integration.
type Reuse struct {
	// Prev is a previous operator whose kernel transform is adopted when
	// the padded grid dims and spacing match: the transform is a function
	// of those alone.
	Prev *Operator
	// Artifact, when non-nil, adopts complete precorrection rows
	// captured by NearArtifact from an operator built over bit-identical
	// panels and options (the disk artifact store's path; internal/plan
	// keys it by a content hash of exact geometry + options, so values
	// baked with a different Eps/Cfg never reach here). The spatial-hash
	// row structure is a deterministic function of the geometry, so the
	// stored values land in the rows a fresh integration would fill; any
	// row whose stored length disagrees with the rebuilt row is
	// integrated fresh instead.
	Artifact *NearArtifact
}

// NearArtifact is the flattened value-only form of the precorrection
// stage: per-row lengths plus the concatenated correction (Val) and
// exact-Galerkin (Exact) entries in row order. The row index structure
// is deliberately omitted — it rebuilds deterministically from the
// geometry — which keeps the on-disk artifact at two float64 per entry.
type NearArtifact struct {
	RowLen []int32
	Val    []float64
	Exact  []float64
}

// valid reports whether the artifact is structurally consistent for an
// n-panel build: one length per row and flat arrays summing to the row
// total.
func (a *NearArtifact) valid(n int) bool {
	if a == nil || len(a.RowLen) != n {
		return false
	}
	var total int64
	for _, l := range a.RowLen {
		if l < 0 {
			return false
		}
		total += int64(l)
	}
	return int64(len(a.Val)) == total && int64(len(a.Exact)) == total
}

// NewOperator builds the grid, kernel transform, stencils and
// precorrection entries.
func NewOperator(panels []geom.Panel, opt Options) *Operator {
	return NewOperatorReuse(panels, opt, nil)
}

// NewOperatorReuse is NewOperator with optional reuse of a previous
// operator's kernel transform and a stored precorrection (reuse may be
// nil; inapplicable reuse degrades to a fresh build).
func NewOperatorReuse(panels []geom.Panel, opt Options, reuse *Reuse) *Operator {
	t0 := time.Now()
	opt.defaults()
	op := &Operator{
		panels:  panels,
		opt:     opt,
		areas:   make([]float64, len(panels)),
		centers: make([]geom.Vec3, len(panels)),
		sten:    make([]stencil, len(panels)),
		nearIdx: make([][]int32, len(panels)),
		nearVal: make([][]float64, len(panels)),
		scale:   1 / (kernel.FourPi * opt.Eps),
	}
	op.nearExact = make([][]float64, len(panels))
	if opt.Exec != nil {
		op.exec = opt.Exec
	} else if opt.Pool != nil {
		op.exec = opt.Pool
	} else if opt.Workers > 1 {
		op.exec = sched.Local(opt.Workers)
	}
	var medEdge float64
	{
		var edges []float64
		for i, p := range panels {
			op.areas[i] = p.Area()
			op.centers[i] = p.Center()
			edges = append(edges, math.Max(p.U.Len(), p.V.Len()))
		}
		// Median without sorting the caller's data.
		medEdge = median(edges)
	}

	// Bounding box of centers.
	lo := geom.Vec3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := geom.Vec3{X: math.Inf(-1), Y: math.Inf(-1), Z: math.Inf(-1)}
	for _, c := range op.centers {
		lo = geom.Vec3{X: math.Min(lo.X, c.X), Y: math.Min(lo.Y, c.Y), Z: math.Min(lo.Z, c.Z)}
		hi = geom.Vec3{X: math.Max(hi.X, c.X), Y: math.Max(hi.Y, c.Y), Z: math.Max(hi.Z, c.Z)}
	}
	span := hi.Sub(lo)
	maxSpan := math.Max(span.X, math.Max(span.Y, span.Z))

	h := opt.GridSpacing
	if h == 0 {
		h = math.Max(medEdge/2, maxSpan/float64(opt.MaxNodes-1))
		if h == 0 {
			h = 1
		}
	}
	op.h = h
	op.origin = lo
	dims := func(s float64) int { return int(s/h) + 2 }
	op.nx, op.ny, op.nz = dims(span.X), dims(span.Y), dims(span.Z)
	op.px = fft.NextPow2(2 * op.nx)
	op.py = fft.NextPow2(2 * op.ny)
	op.pz = fft.NextPow2(2 * op.nz)

	// Geometry-independent phase: the padded-grid kernel transform
	// depends only on the padded dims and the spacing, so a previous
	// variant on the same grid shares it (it is immutable after
	// construction).
	if prev := reusePrev(reuse); prev != nil &&
		prev.px == op.px && prev.py == op.py && prev.pz == op.pz && prev.h == op.h {
		op.kernelHat = prev.kernelHat
		op.kernelShared = true
	} else {
		op.buildKernel()
	}
	op.buildStencils()
	op.buildNodeAdjacency()
	op.topoTime = time.Since(t0)
	tN := time.Now()
	var art *NearArtifact
	if reuse != nil && reuse.Artifact.valid(len(panels)) {
		art = reuse.Artifact
	}
	op.buildPrecorrection(art)
	op.nearTime = time.Since(tN)
	op.scratch = sched.NewScratch(func() *applyScratch {
		return newScratch(len(panels), op.px, op.py, op.pz, op.exec)
	})
	return op
}

// reusePrev returns the previous operator of a reuse request, nil-safe.
func reusePrev(r *Reuse) *Operator {
	if r == nil {
		return nil
	}
	return r.Prev
}

// NearFill reports the pair work behind the exact entries of the rows
// that were not adopted: far-gated pairs, class-table lookups, and the
// classes this construction was the first to integrate.
func (op *Operator) NearFill() assembly.FillStats { return op.nearFill }

// KernelShared reports whether the kernel transform was adopted from
// the previous variant.
func (op *Operator) KernelShared() bool { return op.kernelShared }

// NearArtifact captures the precorrection stage as a flat value-only
// artifact suitable for the disk store: per-row lengths plus the
// concatenated correction and exact-Galerkin entries in row order. A
// later build over bit-identical panels and options adopts it through
// Reuse.Artifact.
func (op *Operator) NearArtifact() *NearArtifact {
	a := &NearArtifact{RowLen: make([]int32, len(op.nearIdx))}
	total := 0
	for i, r := range op.nearIdx {
		a.RowLen[i] = int32(len(r))
		total += len(r)
	}
	a.Val = make([]float64, 0, total)
	a.Exact = make([]float64, 0, total)
	for i := range op.nearIdx {
		a.Val = append(a.Val, op.nearVal[i]...)
		a.Exact = append(a.Exact, op.nearExact[i]...)
	}
	return a
}

// PhaseTimes reports the construction split: the topology phase (grid
// sizing, kernel transform, stencils, adjacency) vs the near-field
// phase (precorrection integration).
func (op *Operator) PhaseTimes() (topology, nearField time.Duration) {
	return op.topoTime, op.nearTime
}

func newScratch(n, px, py, pz int, exec sched.Executor) *applyScratch {
	g := fft.NewRGrid3(px, py, pz)
	g.Exec = exec
	return &applyScratch{
		charges: make([]float64, n),
		grid:    g,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	// Insertion into order via simple sort.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// kernelValue is the grid Green's function between nodes separated by
// (dx, dy, dz) node steps: 1/(h*dist); the self value uses the average of
// 1/r over a cube of side h (~2.38/h), only for internal consistency (all
// node-sharing panel pairs are inside the precorrection radius).
func (op *Operator) kernelValue(dx, dy, dz int) float64 {
	if dx == 0 && dy == 0 && dz == 0 {
		return 2.38 / op.h
	}
	d := math.Sqrt(float64(dx*dx + dy*dy + dz*dz))
	return 1 / (op.h * d)
}

// buildKernel fills the padded kernel grid with circular-symmetric wrap
// layout and forward transforms it into its half spectrum.
func (op *Operator) buildKernel() {
	g := fft.NewRGrid3(op.px, op.py, op.pz)
	g.Exec = op.exec
	for ix := 0; ix < op.px; ix++ {
		wx := wrapDist(ix, op.px)
		for iy := 0; iy < op.py; iy++ {
			wy := wrapDist(iy, op.py)
			base := g.RIdx(ix, iy, 0)
			for iz := 0; iz < op.pz; iz++ {
				g.Data[base+iz] = op.kernelValue(wx, wy, wrapDist(iz, op.pz))
			}
		}
	}
	g.ForwardReal()
	op.kernelHat = g
}

// wrapDist maps a padded index to its signed minimal distance magnitude.
func wrapDist(i, n int) int {
	if i <= n/2 {
		return i
	}
	return n - i
}

// buildStencils computes each panel's trilinear footprint.
func (op *Operator) buildStencils() {
	for i, c := range op.centers {
		fx := (c.X - op.origin.X) / op.h
		fy := (c.Y - op.origin.Y) / op.h
		fz := (c.Z - op.origin.Z) / op.h
		ix, iy, iz := int(fx), int(fy), int(fz)
		tx, ty, tz := fx-float64(ix), fy-float64(iy), fz-float64(iz)
		s := &op.sten[i]
		k := 0
		for a := 0; a < 2; a++ {
			wa := 1 - tx
			if a == 1 {
				wa = tx
			}
			for b := 0; b < 2; b++ {
				wb := 1 - ty
				if b == 1 {
					wb = ty
				}
				for c2 := 0; c2 < 2; c2++ {
					wc := 1 - tz
					if c2 == 1 {
						wc = tz
					}
					s.idx[k] = op.nodeIdx(ix+a, iy+b, iz+c2)
					s.w[k] = wa * wb * wc
					k++
				}
			}
		}
	}
}

// buildNodeAdjacency inverts the stencils into a CSR over logical grid
// nodes, so the projection loop can be parallelized over nodes with no
// write conflicts (each node entry is owned by exactly one task).
func (op *Operator) buildNodeAdjacency() {
	counts := make([]int32, op.nx*op.ny*op.nz)
	for i := range op.sten {
		for k := 0; k < 8; k++ {
			counts[op.sten[i].idx[k]]++
		}
	}
	for n, c := range counts {
		if c > 0 {
			op.activeNodes = append(op.activeNodes, int32(n))
		}
	}
	op.nodeOff = make([]int32, len(op.activeNodes)+1)
	slot := make([]int32, op.nx*op.ny*op.nz) // node -> active slot + 1
	for a, n := range op.activeNodes {
		op.nodeOff[a+1] = op.nodeOff[a] + counts[n]
		slot[n] = int32(a) + 1
	}
	total := op.nodeOff[len(op.activeNodes)]
	op.nodePanel = make([]int32, total)
	op.nodeW = make([]float64, total)
	fill := make([]int32, len(op.activeNodes))
	for i := range op.sten {
		s := &op.sten[i]
		for k := 0; k < 8; k++ {
			a := slot[s.idx[k]] - 1
			p := op.nodeOff[a] + fill[a]
			fill[a]++
			op.nodePanel[p] = int32(i)
			op.nodeW[p] = s.w[k]
		}
	}
}

// nodeIdx linearizes logical node coordinates (clamped into range).
func (op *Operator) nodeIdx(ix, iy, iz int) int32 {
	ix = clamp(ix, op.nx)
	iy = clamp(iy, op.ny)
	iz = clamp(iz, op.nz)
	return int32((ix*op.ny+iy)*op.nz + iz)
}

func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// nodeCoords inverts nodeIdx.
func (op *Operator) nodeCoords(idx int32) (int, int, int) {
	iz := int(idx) % op.nz
	iy := (int(idx) / op.nz) % op.ny
	ix := int(idx) / (op.nz * op.ny)
	return ix, iy, iz
}

// gridPair computes the grid-mediated interaction S_ij between the
// stencils of panels i and j (unit densities): sum_ab w_ia G(a-b) w_jb.
func (op *Operator) gridPair(i, j int) float64 {
	si, sj := &op.sten[i], &op.sten[j]
	var sum float64
	for a := 0; a < 8; a++ {
		ax, ay, az := op.nodeCoords(si.idx[a])
		for b := 0; b < 8; b++ {
			bx, by, bz := op.nodeCoords(sj.idx[b])
			sum += si.w[a] * sj.w[b] * op.kernelValue(ax-bx, ay-by, az-bz)
		}
	}
	return sum
}

// buildPrecorrection finds near pairs via spatial hashing and stores
// both the (exact - grid) correction entries and the exact entries (the
// near-block data). The spatial-hash cells double as the near-block
// clusters, assigned deterministically in panel order. Rows are sorted
// by source panel index: that order is the stored artifact's row layout
// (NearArtifact), whatever order the hash cells were visited in.
//
// Every exact entry is the value of the ordered pair's symmetry class
// (assembly.InternPanels), the row's panel the target, and every
// correction is that value less the grid-mediated part. A row whose
// length matches the adopted artifact's is copied from it instead.
func (op *Operator) buildPrecorrection(art *NearArtifact) {
	cell := op.opt.NearRadius * op.h
	type key struct{ x, y, z int32 }
	buckets := make(map[key][]int32)
	keyOf := func(c geom.Vec3) key {
		return key{
			int32(math.Floor((c.X - op.origin.X) / cell)),
			int32(math.Floor((c.Y - op.origin.Y) / cell)),
			int32(math.Floor((c.Z - op.origin.Z) / cell)),
		}
	}
	op.cluster = make([]int32, len(op.panels))
	clusterOf := make(map[key]int32)
	for i, c := range op.centers {
		k := keyOf(c)
		buckets[k] = append(buckets[k], int32(i))
		id, ok := clusterOf[k]
		if !ok {
			id = int32(len(op.clusters))
			clusterOf[k] = id
			op.clusters = append(op.clusters, nil)
		}
		op.cluster[i] = id
		op.clusters[id] = append(op.clusters[id], int32(i))
	}
	limit := op.opt.NearRadius * op.h

	// Flat-artifact adoption: precompute row offsets into the artifact's
	// concatenated arrays (validated by the caller via NearArtifact.valid).
	var artOff []int64
	if art != nil {
		artOff = make([]int64, len(art.RowLen)+1)
		for i, l := range art.RowLen {
			artOff[i+1] = artOff[i] + int64(l)
		}
	}

	pairs := assembly.InternPanels(op.opt.Cfg, op.opt.Pairs, op.panels)
	sched.MapOrInline(op.exec, len(op.panels), func(i int) {
		ci := op.centers[i]
		k := keyOf(ci)
		var idx []int32
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for dz := int32(-1); dz <= 1; dz++ {
					for _, j := range buckets[key{k.x + dx, k.y + dy, k.z + dz}] {
						if ci.Dist(op.centers[j]) <= limit {
							idx = append(idx, j)
						}
					}
				}
			}
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		val := make([]float64, len(idx))
		exa := make([]float64, len(idx))
		op.nearIdx[i], op.nearVal[i], op.nearExact[i] = idx, val, exa
		if art != nil && int(art.RowLen[i]) == len(idx) {
			// The rebuilt row matches the stored one — adopt the whole
			// row and skip integration.
			lo := artOff[i]
			copy(val, art.Val[lo:lo+int64(len(idx))])
			copy(exa, art.Exact[lo:lo+int64(len(idx))])
			return
		}
		var fill assembly.FillStats
		for t, j := range idx {
			exact := op.scale * pairs.PairInto(i, int(j), &fill)
			gridPart := op.scale * op.areas[i] * op.areas[j] * op.gridPair(i, int(j))
			exa[t], val[t] = exact, exact-gridPart
		}
		op.fillMu.Lock()
		op.nearFill.Add(fill)
		op.fillMu.Unlock()
	})
}

// Dim implements linalg.Matvec.
func (op *Operator) Dim() int { return len(op.panels) }

// GridNodes returns the logical grid dimensions (diagnostics).
func (op *Operator) GridNodes() (int, int, int) { return op.nx, op.ny, op.nz }

// NearEntries returns the number of precorrected pairs.
func (op *Operator) NearEntries() int {
	n := 0
	for _, r := range op.nearIdx {
		n += len(r)
	}
	return n
}

// NearBlocks implements the pipeline's near-block contract
// (internal/op.NearBlocker): the exact-Galerkin diagonal blocks of the
// precorrection spatial-hash clusters, as packed lower triangles.
// Clusters partition the panels; cluster pairs beyond the precorrection
// radius are not stored and stay zero (the preconditioner falls back to
// the block diagonal if the zero-filled block loses positive
// definiteness).
func (op *Operator) NearBlocks() (idx [][]int32, block func(k int) *linalg.Sym) {
	pos := make([]int32, len(op.panels))
	for _, cl := range op.clusters {
		for k, pi := range cl {
			pos[pi] = int32(k)
		}
		idx = append(idx, append([]int32(nil), cl...))
	}
	return idx, func(k int) *linalg.Sym {
		cl := idx[k]
		b := linalg.NewSym(len(cl))
		for r, pi := range cl {
			row := b.Row(r)
			cols := op.nearIdx[pi]
			vals := op.nearExact[pi]
			for k, pj := range cols {
				if c := int(pos[pj]); op.cluster[pj] == op.cluster[pi] && c <= r {
					row[c] = vals[k]
				}
			}
		}
		return b
	}
}

// Apply implements linalg.Matvec: project, convolve, interpolate,
// correct. The projection runs parallel over grid nodes (via the
// precomputed node-to-panel adjacency), the interpolation and
// precorrection parallel over panel ranges, and the fused r2c FFT
// convolution parallel over grid lines (the serial global transform
// was the bottleneck that limited parallel efficiency in [1]). Safe
// for concurrent use and allocation-free after warmup in serial mode.
func (op *Operator) Apply(dst, x []float64) {
	s := op.scratch.Acquire()
	defer op.scratch.Release(s)

	for i := range s.charges {
		s.charges[i] = x[i] * op.areas[i]
	}

	// Zero the padded grid, then project charges onto the logical
	// region: each task owns a disjoint range of grid entries. The
	// serial path runs the same range helpers without closures, so it
	// stays allocation-free.
	g := s.grid
	data := g.Data
	nodes := op.activeNodes
	np := len(op.panels)
	if op.exec == nil {
		op.zeroRange(data, 0, len(data))
		op.projectRange(s, data, 0, len(nodes))
	} else {
		op.exec.Map((len(data)+applyChunk-1)/applyChunk, func(t int) {
			lo, hi := chunkBounds(t, len(data))
			op.zeroRange(data, lo, hi)
		})
		op.exec.Map((len(nodes)+applyChunk-1)/applyChunk, func(t int) {
			lo, hi := chunkBounds(t, len(nodes))
			op.projectRange(s, data, lo, hi)
		})
	}

	// Fused forward -> pointwise multiply -> inverse convolution on
	// the real half-spectrum grid.
	g.ConvolveInto(op.kernelHat)

	// Interpolate + precorrect over panel ranges.
	if op.exec == nil {
		op.evalRange(data, dst, x, 0, np)
		return
	}
	op.exec.Map((np+applyChunk-1)/applyChunk, func(t int) {
		lo, hi := chunkBounds(t, np)
		op.evalRange(data, dst, x, lo, hi)
	})
}

// chunkBounds maps task t to its [lo, hi) range over n items in
// applyChunk-sized chunks.
func chunkBounds(t, n int) (int, int) {
	lo := t * applyChunk
	hi := lo + applyChunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// zeroRange clears grid samples [lo, hi) (float64 slots of the real
// half-spectrum layout).
func (op *Operator) zeroRange(data []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		data[i] = 0
	}
}

// projectRange accumulates panel charges onto active grid nodes
// [lo, hi) through the node-to-panel adjacency. Charges are plain
// float64 writes into the real grid (no complex packing).
func (op *Operator) projectRange(s *applyScratch, data []float64, lo, hi int) {
	g := s.grid
	for a := lo; a < hi; a++ {
		var q float64
		for p := op.nodeOff[a]; p < op.nodeOff[a+1]; p++ {
			q += op.nodeW[p] * s.charges[op.nodePanel[p]]
		}
		ix, iy, iz := op.nodeCoords(op.activeNodes[a])
		data[g.RIdx(ix, iy, iz)] = q
	}
}

// evalRange interpolates grid potentials and applies the precorrection
// for panels [lo, hi).
func (op *Operator) evalRange(data []float64, dst, x []float64, lo, hi int) {
	ls := op.pz + 2 // padded-line stride of the half-spectrum layout
	for i := lo; i < hi; i++ {
		st := &op.sten[i]
		var phi float64
		for k := 0; k < 8; k++ {
			ix, iy, iz := op.nodeCoords(st.idx[k])
			phi += st.w[k] * data[(ix*op.py+iy)*ls+iz]
		}
		y := op.scale * op.areas[i] * phi
		idx := op.nearIdx[i]
		val := op.nearVal[i]
		for k, j := range idx {
			y += val[k] * x[j]
		}
		dst[i] = y
	}
}

var _ linalg.Matvec = (*Operator)(nil)
