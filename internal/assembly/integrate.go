// Package assembly computes the entries of the template interaction matrix
// P~ (paper Eq. 5) and assembles them into the condensed system matrix P
// (paper Figure 3 / Algorithm 1). It contains the template-pair Galerkin
// integration engine implementing the dispatch of paper Section 4: closed
// forms for the non-varying directions, Gaussian quadrature for directions
// with 1-D shape variation (split at shape kinks), and distance-based
// dimension reduction.
//
// # Canonical symmetry classes
//
// Instantiable templates are a handful of shapes stamped out at every
// crossing, and 1/|r-r'| does not change under an isometry, so most
// template pairs of a structure are images of one another under a
// translation, a reflection or an exchange of axes. Every fill therefore
// starts by interning its templates (Integrator.Intern, O(M)): each
// template gets a small class — its extents along X, Y and Z in lattice
// units (zero along the normal), the axis its shape varies along, and the
// shape parameters, rounded — and the per-template constants the far-field
// gate needs. With a class come the classes of its images under the six
// axis orders, read from either end of the vary axis: an arch (e, lin,
// lout) read from the other end is (1-e, lout, lin), exactly, because e is
// rounded to a grid of [0, 1] (2^-40) and not to a number of mantissa bits.
//
// A non-far pair (i, j), i <= j, is identified by its image under the one
// of the 48 signed axis permutations that its own geometry picks
// (Interned.canon): every axis along which j's centre lies below i's is
// reflected, then the axes are put in descending order of centre
// displacement. The key is (class of i's image, class of j's image, centre
// displacement in lattice units); the unit-amplitude integral is evaluated
// once, on the instance rebuilt from that key (i's image with its corner at
// the origin), and stored in a PairCache; the matrix entry is amp_i * amp_j
// * value. The per-pair cost is a dozen integer operations, two reads of
// the classes' image tables and the lookup: the table keeps its entries in
// the order they arrived, a later fill asks for them in very nearly that
// order, so a sweep remembers where its last hit was and first compares
// its key with the entries beside it — no hash, no lock, the next line of
// memory — before it probes the table's index (see PairCache; FillStats
// counts both kinds).
//
// What is not quotiented is the order of the pair: the mid-field and
// generic dispatch collocate one template against the other, so the
// swapped pair is a different approximation of the same integral, several
// percent away at mid range, and folding the two would move results. Nor
// are ties resolved: an axis with no centre displacement keeps its
// direction and axes with equal displacements keep their order, so such a
// pair and its image under the isometry that the tie leaves free can have
// different keys (89 of 19 447 keys on the 16x16 bus are such duplicates).
// Choosing between them would need an order on classes, and the only
// cheap one is by id, which depends on what was interned first. As it is,
// the isometry applied depends on the pair's geometry alone and the value
// stored is a pure function of the key — the integral of the instance the
// key describes — so every backend, partition, rank-private table and
// shared table holds the same bits whatever the order of arrival.
//
// A class value differs from the pair's integral at its own coordinates
// by rounding: the lattice moves coordinates by at most 2^-40 of the
// structure, and the closed forms are invariant under the isometries only
// up to the cancellation in their corner sums (1e-9 relative at worst, the
// 16-corner parallel form at mid range). The far gate and the dispatch
// thresholds are functions of distances and diameters, which isometries
// keep.
//
// The lattice quantum is the power of two in (2^-40, 2^-39] of the
// structure's largest bounding-box side: four orders of magnitude above
// the rounding noise of coordinate arithmetic (which is what makes
// "3*pitch - pitch" and "2*pitch - 0" different bit patterns), and three
// below the accuracy anyone checks capacitances to. It is relative to
// the structure, not absolute, so a structure described in microns and
// the same one in meters intern identically; it is a constant, not a
// setting.
//
// What bypasses the table: far pairs (the point-charge form is cheaper
// than any lookup), and templates the key cannot describe — a
// basis.Shape implementation other than FlatShape and ArchShape (no
// builder emits one) or a support below the lattice's resolution. Those
// are evaluated at their absolute coordinates by
// Integrator.TemplatePair's code path.
//
// # Panels
//
// A panel of the piecewise-constant baselines is nothing but a flat
// template of amplitude 1, and a uniform mesh repeats its pairs far more
// often than a template basis does (the 8x8 bus at 0.5 um: 3.37 M non-far
// pairs in 3 680 classes). InternPanels interns a []geom.Panel straight
// into the per-template records — no basis.Set is built — and
// Interned.PairInto then is the one source of every exact panel-pair
// integral: the dense assembly (op.Spec), the multipole near field (fmm)
// and the pfft precorrection read it, each through a table handed down
// from the plan (plan.Options.Pairs; the batch engine hands every plan it
// caches its one table), and nothing switches it off. The flat x flat
// branch of the dispatch is kernel.RectGalerkin, so a class value is that
// function at the class's canonical instance.
//
// Pairs are ordered: PairInto(i, j, c) collocates panel i, the target,
// wherever the dispatch collocates (the mid-field form; the tensor rule of
// perpendicular pairs), and the key keeps the order, as it does for
// templates. A caller fixes the order per pair: dense rows and the fmm
// near field take the lower panel index as target, a pfft precorrection
// row its own panel. Far pairs bypass the table exactly as template pairs
// do — gated and evaluated at absolute coordinates, where the point form is
// the same expression RectGalerkin's far branch is — and so do panels the
// key cannot describe.
//
// A class value agrees with RectGalerkin at the pair's own coordinates to
// 7.3e-11 relative (3e-12 on self terms) except where the pair's
// separation over its mean diameter sits on a value the dispatch compares
// it with: MidFactor, FarFactor, and the 0.1 and 1.0 at which the
// perpendicular quadrature raises its order. Regular meshes land there
// exactly (16 of the 14 400 ordered pairs of the 2x2 bus at 1 um, 3 084 of
// 1.18 M on the 4x4 bus at 0.5 um), and at absolute coordinates the last
// bit of a subtraction then picks the branch, pair by pair: two images of
// one pair can fall on either side, up to 1.9e-3 of the entry apart. The
// class picks once, on its canonical instance, for every image that
// reaches the table — all of them at the mid-field and quadrature
// thresholds; at the far gate, which comes before the table, those it lets
// through — so of the two the class value is the better defined one.
// TestPanelCensus pins the class counts, the threshold pairs and the bound
// on the rest.
//
// The lattice quantum follows the bounding box of the panels interned, so
// two variants of a structure share classes as long as the largest extent
// stays within one binade; a variant that crosses a power of two re-keys
// every class — still correct, only cold.
//
// # Blocks
//
// The dense assembly (Interned.FillUpper) does not ask for its pairs one by
// one. Panels come from geom.Rect.SplitGrid, uniform grids, so it fills the
// upper triangle block by block of panel groups. A group is a maximal run
// of consecutive panels that share one class (tplGroup; a face, or two
// opposite faces of one size): interning records, per axis, the distinct
// (lo, hi) extents its members take and each member's rank among them. A
// block (A, B) then computes, per axis and over A's and B's extents only,
// what PairInto computes per pair: the gap², and centre2 — twice the centre
// displacement in lattice units — folded to its magnitude when neither
// class varies along an axis.
//
// A near pair's memo cell is the rank triple of its three centre2 values.
// The key canon builds is a function of the two classes, which the block
// fixes, and of those three numbers alone, so every pair of a cell has the
// same key and the same class value, to the bit; only the first pair of a
// cell calls PairInto, and the others take its value from the memo
// (FillStats.PairMemo). Of its near pairs a cold assembly looks up 28 408
// of 121 210 on the crossing pair at 0.4 um, 4 933 of 26 106 on the 3x3 bus
// at 1 um and 1 024 of 18 528 on the plates (TestDenseLookupsPerAssembly).
//
// The far gate stays PairInto's. It is decided per pair from the block's
// gap² tables, summed in axis order — the same additions, on the same
// rounded squares — unless the block's bounds decide it for every pair: the
// smallest gap against the largest diameters (all far), or the largest gap
// against the smallest diameters (all near, and no gate is evaluated).
// Rounding is monotone, so a bound never decides a pair otherwise than the
// gate would. Far values are evaluated per pair at absolute coordinates.
// Blocks of classless panels, single-pair blocks and blocks whose tables
// would be too large go through PairInto pair by pair in the same loop.
//
// A block writes each value it computes once, at (j, i) of the packed
// lower triangle (linalg.Sym), the one storage of a symmetric matrix. A
// geometry variant fills the matrix of the variant before it in place: a
// pair of panels that moved rigidly together keeps its value, unread and
// unwritten, and a block whose two groups lie in one rigid-motion class is
// skipped whole.
//
// Blocks over pieceMax pairs are cut into row ranges, and the block order
// is cut into tasks of about that many pairs; the cut depends on the panels
// alone, so the counts repeat at every executor width. Each task takes its
// tables and memo from the class table's free list and gives them back, so
// a steady stream of assemblies through one table allocates none.
//
// A template fill (FillRanges) reads its pairs through block memos too, but
// its order is Algorithm 1's: P~'s upper triangle in k order, pair (i, j)
// added at (owner(j), owner(i)) of P's packed lower triangle (linalg.Sym),
// every entry of P summed in that order. Templates are not interned in runs — at 16x16 the
// bus's 1 728 templates form 1 280 runs of one class, but take 13 classes —
// so a template fill's groups are classes (cut every groupMax members,
// classGroupMax groups at most), and a near pair's block is the ordered pair
// (group of i, group of j). Before the fill, every block's per-axis tables
// are built once, by the function the panel blocks use, into one slab, and
// its cells are laid out in one memo the fill's workers share. The k-order
// loop is unchanged; per pair it reads the cell from the two templates'
// ranks, and the first pair of a cell calls the key path and stores the
// unit class value's bits in it (0 is empty; a racing worker stores the same
// bits, the value being a pure function of the key); the rest take them and
// multiply by their own amplitudes as PairInto does. Every pair gets the
// value PairInto would return, to the bit, and is added where and when it
// was before, so P is bitwise what it was at any worker count, rank count
// or partition. Of the 945 840 near pairs of the 16x16 bus the fill looks
// up 44 256 (15 988 of 113 112 at 8x8, 90 875 of 2 668 500 at 24x24;
// TestTemplateLookupsPerFill); the classes integrated do not change.
//
// Both kinds of block leave out of their cells the extent pairs whose gap
// along one axis alone passes FarFactor times the groups' largest mean
// diameter: such a pair is far whatever the other axes add, by the
// monotone-rounding argument above. The memo of the 16x16 bus is 82 464
// cells, 0.66 MB (123 804 without the cut). A template block whose memo
// would hold more cells than it has pairs, or pass tableMax, is filled pair
// by pair, as are templates without a class.
package assembly

import (
	"math"
	"sync"

	"parbem/internal/basis"
	"parbem/internal/geom"
	"parbem/internal/kernel"
	"parbem/internal/quad"
)

// Integrator evaluates template-pair Galerkin integrals under a kernel
// configuration. Apart from the fill counters it is stateless, and it is
// safe for concurrent use; Cfg must not change once it is in use.
type Integrator struct {
	Cfg *kernel.Config

	// Pairs is the table of symmetry-class integrals the fills of this
	// integrator read and extend (see PairCache): share one to reuse
	// classes across fills. Nil gives every fill a table of its own. A
	// class value is a pure function of its canonical key; it differs
	// from evaluating the same pair at its absolute coordinates by
	// rounding only.
	Pairs *PairCache

	mu    sync.Mutex
	stats FillStats
}

// FillStats counts the work of the fills run through an Integrator. The
// worker of a sweep owns one for the sweep's length (Interned.PairInto) and
// folds it into an aggregate with Add when it is done.
type FillStats struct {
	// PairsFar is the number of template pairs served by the far-field
	// point-charge form; PairsNear the rest, each of which is one
	// PairCache lookup (or, for what bypasses the table, one integration)
	// unless its block's memo served it (PairMemo). A lookup is a miss if
	// it added its class to the table (ClassesIntegrated) and a hit
	// otherwise; the table itself counts nothing.
	PairsFar  int64 `json:"pairs_far"`
	PairsNear int64 `json:"pairs_near"`
	// PairMemo is the number of near pairs a block fill — a template fill
	// or a dense panel assembly — served from the memo of their block (see
	// "Blocks" in the package comment): a pair of the same class came first
	// there, so no key was built.
	PairMemo int64 `json:"pair_memo"`
	// PairSequential is the number of those lookups the sweep's cursor
	// served — the class sat next to the sweep's last hit in the table's
	// arrival-order log — without the key being hashed or the index
	// touched. It repeats exactly only at one worker: what a worker's
	// stream looks like depends on the chunks it claimed.
	PairSequential int64 `json:"pair_sequential"`
	// ClassesIntegrated is the number of symmetry classes (near pairs up
	// to translation, reflection and axis permutation) these fills
	// integrated and added to their table.
	ClassesIntegrated int64 `json:"classes_integrated"`
	// TableBytes sums, over the fills, the size of the fill's table when
	// the fill ended.
	TableBytes int64 `json:"table_bytes"`

	// cur is the sweep's place in the table's log. It pins a generation
	// of the table, so it stays with the worker: Add does not copy it.
	cur pairCursor
}

// Add folds o's counts into s.
func (s *FillStats) Add(o FillStats) {
	s.PairsFar += o.PairsFar
	s.PairsNear += o.PairsNear
	s.PairMemo += o.PairMemo
	s.PairSequential += o.PairSequential
	s.ClassesIntegrated += o.ClassesIntegrated
	s.TableBytes += o.TableBytes
}

// FillStats returns the counters accumulated so far.
func (in *Integrator) FillStats() FillStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// AddFillStats folds s into the counters. Fills call it once per chunk;
// the distributed backend uses it to credit the ranks' work, counted on
// their own integrators, to the caller's.
func (in *Integrator) AddFillStats(s FillStats) {
	in.mu.Lock()
	in.stats.Add(s)
	in.mu.Unlock()
}

// NewIntegrator returns an integrator with the default configuration
// (callers: bench/ and the tests of assembly, par, mpi, op and parbem).
func NewIntegrator() *Integrator { return &Integrator{Cfg: kernel.DefaultConfig()} }

// maxNodes bounds the per-direction quadrature nodes: up to 3 kink-split
// segments of up to 32 points.
const maxNodes = 96

// nodeBuf is a stack-allocated quadrature node/weight set.
type nodeBuf struct {
	x, w [maxNodes]float64
	n    int
}

// fill populates the buffer with Gauss nodes over iv, split at the shape's
// breakpoints, with the weights pre-multiplied by the shape values.
func (nb *nodeBuf) fill(sh basis.Shape, iv geom.Interval, order int) {
	if order > 32 {
		order = 32
	}
	if cs, ok := sh.(*classShape); ok {
		cs.fill(nb, iv, order)
		return
	}
	var brk [4]float64
	nseg := 0
	brk[nseg] = iv.Lo
	nseg++
	if bp, ok := sh.(basis.Breakpointer); ok {
		if t, has := bp.Breakpoint(); has {
			u := iv.Lo + t*iv.Len()
			if u > brk[nseg-1]+1e-12*iv.Len() && u < iv.Hi-1e-12*iv.Len() {
				brk[nseg] = u
				nseg++
			}
		}
	}
	brk[nseg] = iv.Hi
	nseg++
	cnt := 0
	for s := 0; s+1 < nseg; s++ {
		quad.FillMapped(order, brk[s], brk[s+1], nb.x[cnt:], nb.w[cnt:])
		cnt += order
	}
	nb.n = cnt
	inv := 1 / iv.Len()
	for i := 0; i < cnt; i++ {
		nb.w[i] *= sh.Eval((nb.x[i] - iv.Lo) * inv)
	}
}

// fillFlat populates plain Gauss nodes over iv (weight only).
func (nb *nodeBuf) fillFlat(iv geom.Interval, order int) {
	if order > 32 {
		order = 32
	}
	quad.FillMapped(order, iv.Lo, iv.Hi, nb.x[:], nb.w[:])
	nb.n = order
}

// TemplatePair computes the unscaled Galerkin integral (paper Eq. 5)
//
//	P~_ij = int int T_i(r) T_j(r') / |r - r'| ds' ds
//
// (the 1/(4*pi*eps) prefactor is applied once at the system level) at the
// templates' absolute coordinates. It is the reference the class values
// of a fill are tested against (in assembly's and par's tests and the
// facade's ablation benchmark); fills go through Interned.Pair.
func (in *Integrator) TemplatePair(ti, tj *basis.Template) float64 {
	cfg := in.Cfg
	d := ti.Support.Dist(tj.Support)
	diam := 0.5 * (ti.Support.Diameter() + tj.Support.Diameter())

	if !cfg.DisableApprox && d > kernel.FarFactor*diam {
		// Far field: both templates collapse to point charges carrying
		// their zeroth moments, placed at their charge centroids
		// (support centers are wrong for asymmetric arch shapes).
		return ti.Moment() * tj.Moment() / ti.Centroid().Dist(tj.Centroid())
	}
	return in.templatePairNear(ti, tj, d, diam)
}

// templatePairNear evaluates a non-far pair: the work a class value stands
// for. d and diam are the support distance and mean support diameter.
func (in *Integrator) templatePairNear(ti, tj *basis.Template, d, diam float64) float64 {
	cfg := in.Cfg

	if ti.IsFlat() && tj.IsFlat() {
		return ti.Amplitude * tj.Amplitude * kernel.RectGalerkin(cfg, ti.Support, tj.Support)
	}

	if !cfg.DisableApprox && d > kernel.MidFactor*diam {
		// Intermediate: collocate the target at its charge centroid.
		return ti.Moment() * in.potentialAt(tj, ti.Centroid())
	}

	q := in.order(d, diam)
	if ti.Support.ParallelTo(tj.Support) {
		switch {
		case tj.IsFlat():
			return in.stripPair(ti, tj, q)
		case ti.IsFlat():
			return in.stripPair(tj, ti, q)
		default:
			if ti.Dir == tj.Dir {
				return in.pairSameAxis(ti, tj, q)
			}
			return in.pairCrossAxis(ti, tj, q)
		}
	}
	return in.genericPair(ti, tj, q)
}

// order picks the per-dimension Gauss order, elevated for close pairs where
// the (integrable) kernel singularity slows quadrature convergence.
func (in *Integrator) order(d, diam float64) int {
	q := in.Cfg.QuadOrder
	switch {
	case d < 0.05*diam:
		q *= 4
	case d < diam:
		q *= 2
	}
	if q > 32 {
		q = 32
	}
	return q
}

// stripPair integrates a shaped template against a flat template in a
// parallel plane: 1-D shape-weighted quadrature along the varying
// direction, closed-form 3-D strip integral for the rest (paper Eq. 7).
func (in *Integrator) stripPair(shaped, flat *basis.Template, q int) float64 {
	Z := shaped.Support.Offset - flat.Support.Offset
	var vary, tv, sv, su geom.Interval
	if shaped.Dir == basis.VaryU {
		vary, tv = shaped.Support.U, shaped.Support.V
		sv, su = flat.Support.V, flat.Support.U
	} else {
		vary, tv = shaped.Support.V, shaped.Support.U
		sv, su = flat.Support.U, flat.Support.V
	}
	var nb nodeBuf
	nb.fill(shaped.Shape, vary, q)
	var sum float64
	for i := 0; i < nb.n; i++ {
		sum += nb.w[i] *
			kernel.GalerkinStrip(tv.Lo, tv.Hi, sv.Lo, sv.Hi, su.Lo, su.Hi, nb.x[i], Z)
	}
	return shaped.Amplitude * flat.Amplitude * sum
}

// pairSameAxis integrates two shaped templates in parallel planes whose
// shapes vary along the same world axis: tensor quadrature over the two
// varying coordinates, closed-form Galerkin pairing of the flat direction.
// Mismatched Gauss orders (q, q+1) guarantee the quadrature nodes never
// collide on the (integrably log-singular) diagonal X = 0 for coincident
// supports.
func (in *Integrator) pairSameAxis(ti, tj *basis.Template, q int) float64 {
	Z := ti.Support.Offset - tj.Support.Offset
	var vi, vj, fi, fj geom.Interval
	if ti.Dir == basis.VaryU {
		vi, fi = ti.Support.U, ti.Support.V
		vj, fj = tj.Support.U, tj.Support.V
	} else {
		vi, fi = ti.Support.V, ti.Support.U
		vj, fj = tj.Support.V, tj.Support.U
	}
	var na, nbuf nodeBuf
	na.fill(ti.Shape, vi, q)
	qj := q + 1
	if qj > 32 {
		qj = 31 // keep the orders distinct
	}
	nbuf.fill(tj.Shape, vj, qj)
	tiny := 1e-12 * (vi.Len() + vj.Len())
	var sum float64
	for a := 0; a < na.n; a++ {
		wa := na.w[a]
		if wa == 0 {
			continue
		}
		ua := na.x[a]
		var inner float64
		for b := 0; b < nbuf.n; b++ {
			X := ua - nbuf.x[b]
			if math.Abs(X) < tiny {
				X = tiny
			}
			inner += nbuf.w[b] * kernel.GalerkinPair1D(fi.Lo, fi.Hi, fj.Lo, fj.Hi, X, Z)
		}
		sum += wa * inner
	}
	return ti.Amplitude * tj.Amplitude * sum
}

// pairCrossAxis integrates two shaped templates in parallel planes whose
// shapes vary along different in-plane axes (e.g. an arch along the lower
// wire against an arch along the upper wire at a crossing): tensor
// quadrature over the two varying coordinates, and for the two flat
// directions the closed-form mixed second antiderivative F2 differenced at
// the four interval-end combinations.
func (in *Integrator) pairCrossAxis(ti, tj *basis.Template, q int) float64 {
	Z := ti.Support.Offset - tj.Support.Offset
	// Varying interval of ti and its flat complement; same for tj. The
	// two flat directions are paired: ti's flat axis is tj's varying
	// axis and vice versa.
	var vi, fi, vj, fj geom.Interval
	if ti.Dir == basis.VaryU {
		vi, fi = ti.Support.U, ti.Support.V
	} else {
		vi, fi = ti.Support.V, ti.Support.U
	}
	if tj.Dir == basis.VaryU {
		vj, fj = tj.Support.U, tj.Support.V
	} else {
		vj, fj = tj.Support.V, tj.Support.U
	}
	var na, nb nodeBuf
	na.fill(ti.Shape, vi, q)
	nb.fill(tj.Shape, vj, q)
	var sum float64
	for a := 0; a < na.n; a++ {
		wa := na.w[a]
		if wa == 0 {
			continue
		}
		u := na.x[a] // ti's varying coordinate == tj's flat axis coordinate
		// The two flat directions integrate in closed form: a 2-D
		// rectangle integral of 1/r over [fj] x [fi] evaluated at the
		// in-plane point (u, vp) with plane separation Z.
		var inner float64
		for b := 0; b < nb.n; b++ {
			inner += nb.w[b] * kernel.RectPotential(
				fj.Lo, fj.Hi, fi.Lo, fi.Hi, u, nb.x[b], Z)
		}
		sum += wa * inner
	}
	return ti.Amplitude * tj.Amplitude * sum
}

// genericPair is the robust fallback (perpendicular planes, or parallel
// shaped pairs varying along different axes): shape-weighted tensor
// quadrature over the target support, with the source potential evaluated
// in closed form (flat) or by 1-D quadrature over its varying direction.
func (in *Integrator) genericPair(ti, tj *basis.Template, q int) float64 {
	sup := ti.Support
	var nu, nv nodeBuf
	switch ti.Dir {
	case basis.VaryU:
		nu.fill(ti.Shape, sup.U, q)
		nv.fillFlat(sup.V, q)
	case basis.VaryV:
		nu.fillFlat(sup.U, q)
		nv.fill(ti.Shape, sup.V, q)
	default:
		nu.fillFlat(sup.U, q)
		nv.fillFlat(sup.V, q)
	}
	src := source{in: in, t: tj}
	src.prepare()
	ua, va := sup.UAxis(), sup.VAxis()
	var p [3]float64
	p[sup.Normal] = sup.Offset
	var sum float64
	for a := 0; a < nu.n; a++ {
		wu := nu.w[a]
		if wu == 0 {
			continue
		}
		p[ua] = nu.x[a]
		for b := 0; b < nv.n; b++ {
			p[va] = nv.x[b]
			sum += wu * nv.w[b] * src.potentialAt(&p)
		}
	}
	return ti.Amplitude * sum
}

// potentialAt evaluates the single-layer potential of template tj at point
// p (including tj's amplitude, excluding 1/(4*pi*eps)).
func (in *Integrator) potentialAt(tj *basis.Template, p geom.Vec3) float64 {
	src := source{in: in, t: tj}
	src.prepare()
	return src.potentialAt(&[3]float64{p.X, p.Y, p.Z})
}

// source is a template set up as the source of potential evaluations, so
// that genericPair's q^2 target points share what depends on the template
// alone: a flat one's resolved axes; a shaped one's axes and its
// quadrature nodes along the varying direction.
type source struct {
	in   *Integrator
	t    *basis.Template
	rect kernel.Source // flat

	flat         geom.Interval // shaped: the support along the constant direction
	aVary, aFlat geom.Axis
	nb           nodeBuf
}

// prepare fills in what follows from in and t. (They are set by the caller:
// stored through s, they would be taken to escape.)
func (s *source) prepare() {
	in, tj := s.in, s.t
	sup := tj.Support
	if tj.IsFlat() {
		s.rect = kernel.NewSource(sup)
		return
	}
	vary := sup.U
	s.flat, s.aVary, s.aFlat = sup.V, sup.UAxis(), sup.VAxis()
	if tj.Dir != basis.VaryU {
		vary, s.flat, s.aVary, s.aFlat = sup.V, sup.U, s.aFlat, s.aVary
	}
	s.nb.fill(tj.Shape, vary, min(2*in.Cfg.QuadOrder, 32))
}

// potentialAt is the template's potential at the point with world
// coordinates p.
func (s *source) potentialAt(p *[3]float64) float64 {
	in, tj := s.in, s.t
	if tj.IsFlat() {
		return tj.Amplitude * s.rect.Collocation(in.Cfg, p)
	}
	pVary, pFlat := p[s.aVary], p[s.aFlat]
	pn := p[tj.Support.Normal] - tj.Support.Offset
	var sum float64
	for i := 0; i < s.nb.n; i++ {
		du := pVary - s.nb.x[i]
		d2 := du*du + pn*pn
		sum += s.nb.w[i] * kernel.SegPotential(s.flat.Lo, s.flat.Hi, pFlat, d2)
	}
	return tj.Amplitude * sum
}
