package basis

import (
	"math"
	"sort"

	"parbem/internal/geom"
)

// The template library's calibration, fitted once against the fine
// piecewise-constant solution of the elementary crossing problem: the a(h)
// and b(h) that extract.SweepH measures (examples/templates prints them).
const (
	// extFactor and inFactor size the arch templates relative to the
	// facing gap h: the extension length is extFactor*h beyond the shadow
	// edge and the ingrowing length is inFactor*h inside it (clipped to
	// the available face).
	extFactor = 2.0
	inFactor  = 1.5
	// decayFactor sets the arch profile decay length to decayFactor*h.
	decayFactor = 0.6
	// minShadowFrac skips induced bases whose shadow would cover less
	// than this fraction of the face's shorter edge (negligible overlap).
	minShadowFrac = 0.02
	// archAmpFactor calibrates the library's arch-to-flat amplitude
	// ratio: R(h) = archAmpFactor * min(shadow edge)/h - 1, from the
	// b(h)/a(h) fits. Pairs whose ratio falls outside the calibration's
	// validity range ([0.5, 4]) use independent shadow/arch functions
	// instead.
	archAmpFactor = 3.5
)

// BuilderOptions tunes instantiable-basis generation.
type BuilderOptions struct {
	// SeparateInduced splits each induced basis into independent shadow
	// and arch-pair functions (more degrees of freedom, larger N and a
	// correspondingly larger direct solve). The default (false) follows
	// the paper: one induced basis function per facing surface,
	// assembling the flat shadow template and its arch templates with
	// relative amplitudes fixed by the template library.
	SeparateInduced bool
}

// facing is a detected facing-face pair: two parallel planes of different
// conductors looking at each other across gap H with a positive-area
// plan-view overlap.
type facing struct {
	loFace, hiFace geom.Rect // loFace.Offset < hiFace.Offset along Normal
	loCond, hiCond int
	overU, overV   geom.Interval // overlap in the faces' U/V axes
	h              float64
}

// Build generates the instantiable basis set for a Manhattan structure.
func Build(st *geom.Structure, opt BuilderOptions) *Set {
	// Facing-pair detection across conductor pairs.
	pairs := detectFacing(st)
	// The coupling radius, 3x the median facing gap, limits which facing
	// face pairs receive induced basis functions: nearer pairs dominate
	// the induced charge, and farther pairs are represented well enough
	// by face basis functions. The median is robust to a few very tight
	// gaps (e.g. via landing clearances) that would otherwise shrink the
	// radius and drop the real crossings. The pairs are sorted by gap, so
	// the positive gaps are a suffix of them.
	var gap float64
	if z := sort.Search(len(pairs), func(i int) bool { return pairs[i].h > 0 }); z < len(pairs) {
		gap = 3 * pairs[z+(len(pairs)-z)/2].h
	}
	// h == 0 means touching (shorted) conductors: no gap to induce
	// charge across, and degenerate arch geometry; such pairs, and pairs
	// beyond the coupling radius, get no induced functions.
	coupled := func(p *facing) bool { return p.h > 0 && p.h <= gap }
	// First walk: the shadows that land on each physical face, so that
	// arch extents can be clipped at the midpoint toward neighboring
	// shadows: adjacent crossings on a dense bus otherwise grow
	// overlapping arches whose sum is nearly dependent with the face
	// basis function (ill-conditioning the Gram matrix).
	shadowsByFace := map[faceKey][]geom.Rect{}
	sides := 0
	for i := range pairs {
		if p := &pairs[i]; coupled(p) {
			k := keyOf(p.loFace, p.loCond)
			shadowsByFace[k] = append(shadowsByFace[k], p.shadow(p.loFace))
			k = keyOf(p.hiFace, p.hiCond)
			shadowsByFace[k] = append(shadowsByFace[k], p.shadow(p.hiFace))
			sides += 2
		}
	}

	// Face basis functions, one per conductor face. A face has one
	// template and a side of a pair at most five (the shadow and two
	// arches per direction), which sizes the staging array once.
	faces := st.TotalFaces()
	b := &builder{set: &Set{NumConductors: st.NumConductors()}, opt: opt}
	b.staging = make([]Template, 0, faces+5*sides)
	b.pending[KindFace] = make([]pendingFunc, 0, faces)
	for ci, c := range st.Conductors {
		for _, bx := range c.Boxes {
			for _, f := range bx.Faces() {
				b.collect(ci, KindFace, Template{
					Support: f, Dir: VaryNone, Shape: FlatShape{}, Amplitude: 1,
				})
			}
		}
	}
	// Second walk: the induced functions of both faces of each pair.
	for i := range pairs {
		if p := &pairs[i]; coupled(p) {
			b.addInduced(p.loFace, p.loCond, p, shadowsByFace[keyOf(p.loFace, p.loCond)])
			b.addInduced(p.hiFace, p.hiCond, p, shadowsByFace[keyOf(p.hiFace, p.hiCond)])
		}
	}
	b.emitInterleaved()
	return b.set
}

// shadow returns the pair's overlap on one of its two faces.
func (p *facing) shadow(face geom.Rect) geom.Rect {
	face.U = p.overU
	face.V = p.overV
	return face
}

// faceKey identifies a physical conductor face.
type faceKey struct {
	cond   int
	normal geom.Axis
	offset float64
	u0, u1 float64
	v0, v1 float64
}

func keyOf(f geom.Rect, cond int) faceKey {
	return faceKey{cond: cond, normal: f.Normal, offset: f.Offset,
		u0: f.U.Lo, u1: f.U.Hi, v0: f.V.Lo, v1: f.V.Hi}
}

// clipWindow returns the allowed arch window around shadow interval sh
// along one direction, limited by the face interval and by the midpoint of
// the gap toward the nearest neighboring shadow on the same face (in that
// direction, considering only neighbors whose cross-direction interval
// overlaps).
func clipWindow(sh, face geom.Interval, neighbors []geom.Interval) geom.Interval {
	lo := face.Lo
	hi := face.Hi
	for _, nb := range neighbors {
		if nb.Lo >= sh.Hi { // neighbor to the right
			mid := 0.5 * (sh.Hi + nb.Lo)
			if mid < hi {
				hi = mid
			}
		}
		if nb.Hi <= sh.Lo { // neighbor to the left
			mid := 0.5 * (nb.Hi + sh.Lo)
			if mid > lo {
				lo = mid
			}
		}
	}
	return geom.Interval{Lo: lo, Hi: hi}
}

// pendingFunc is a queued basis function: its conductor and the range
// [lo, hi) of its templates in the builder's staging array.
type pendingFunc struct {
	cond, lo, hi int
}

// builder generates a set in two steps. The walk over the facing pairs
// appends every function's templates to one staging array and queues the
// function as a range of it, per kind; emitInterleaved then writes each
// template once into the set's arrays, allocated at their final length.
// nbU and nbV are the per-placement neighbour intervals, one scratch
// reused by every placement.
type builder struct {
	set      *Set
	opt      BuilderOptions
	staging  []Template
	pending  [3][]pendingFunc // indexed by Kind
	nbU, nbV []geom.Interval
}

// collect queues a basis function for emission, copying its templates to
// the staging array.
func (b *builder) collect(cond int, kind Kind, tpls ...Template) {
	lo := len(b.staging)
	b.staging = append(b.staging, tpls...)
	b.pending[kind] = append(b.pending[kind], pendingFunc{cond: cond, lo: lo, hi: len(b.staging)})
}

// emitInterleaved writes the pending functions to the set, riffling the
// three kinds proportionally. Basis-function order is free (only the
// template grouping per function matters for the owner array), and
// interleaving cheap flat-template functions with expensive shaped ones
// flattens the per-column cost profile of P~, which is what makes the
// paper's equal-count k-partition "sufficiently balanced" (Section 3).
// The set's Functions, Templates and Owner are allocated here, once, at
// their final length.
func (b *builder) emitInterleaved() {
	var total, emitted [3]int
	remaining := 0
	for k := range b.pending {
		total[k] = len(b.pending[k])
		remaining += total[k]
	}
	s := b.set
	s.Functions = make([]Function, 0, remaining)
	s.Templates = make([]Template, 0, len(b.staging))
	s.Owner = make([]int, 0, len(b.staging))
	for ; remaining > 0; remaining-- {
		// Pick the kind that is most behind its proportional pace.
		best, bestLag := -1, -1.0
		for k := range b.pending {
			if emitted[k] >= total[k] {
				continue
			}
			lag := float64(total[k]-emitted[k]) / float64(total[k])
			if lag > bestLag {
				best, bestLag = k, lag
			}
		}
		pf := b.pending[best][emitted[best]]
		emitted[best]++
		lo, fi := len(s.Templates), len(s.Functions)
		s.Templates = append(s.Templates, b.staging[pf.lo:pf.hi]...)
		for range pf.hi - pf.lo {
			s.Owner = append(s.Owner, fi)
		}
		s.Functions = append(s.Functions, Function{
			Conductor: pf.cond, TplLo: lo, TplHi: len(s.Templates), Kind: Kind(best),
		})
	}
}

// detectFacing finds all facing face pairs between boxes of different
// conductors: along each axis, the upper face of the lower box and the
// lower face of the upper box, if their plan extents overlap with positive
// area. It counts the pairs before it allocates.
func detectFacing(st *geom.Structure) []facing {
	n := 0
	eachFacing(st, func(facing) { n++ })
	out := make([]facing, 0, n)
	eachFacing(st, func(f facing) { out = append(out, f) })
	// Deterministic order regardless of detection order.
	sort.Slice(out, func(a, b int) bool {
		fa, fb := out[a], out[b]
		if fa.h != fb.h {
			return fa.h < fb.h
		}
		if fa.loCond != fb.loCond {
			return fa.loCond < fb.loCond
		}
		return fa.hiCond < fb.hiCond
	})
	return out
}

// eachFacing calls fn on every facing pair, in detection order.
func eachFacing(st *geom.Structure, fn func(facing)) {
	for ci := 0; ci < len(st.Conductors); ci++ {
		for cj := ci + 1; cj < len(st.Conductors); cj++ {
			for _, bi := range st.Conductors[ci].Boxes {
				for _, bj := range st.Conductors[cj].Boxes {
					for ax := geom.X; ax <= geom.Z; ax++ {
						if f, ok := facingAlong(bi, bj, ci, cj, ax); ok {
							fn(f)
						} else if f, ok := facingAlong(bj, bi, cj, ci, ax); ok {
							fn(f)
						}
					}
				}
			}
		}
	}
}

// facingAlong tests whether lower box lo sits below upper box hi along ax
// with overlapping plan extents, returning the facing pair.
func facingAlong(lo, hi geom.Box, loCond, hiCond int, ax geom.Axis) (facing, bool) {
	top := lo.Extent(ax).Hi
	bot := hi.Extent(ax).Lo
	if top > bot {
		return facing{}, false
	}
	// Build the two face rectangles.
	var loFace, hiFace geom.Rect
	for _, f := range lo.Faces() {
		if f.Normal == ax && f.Offset == top {
			loFace = f
		}
	}
	for _, f := range hi.Faces() {
		if f.Normal == ax && f.Offset == bot {
			hiFace = f
		}
	}
	ou, okU := loFace.U.Intersect(hiFace.U)
	ov, okV := loFace.V.Intersect(hiFace.V)
	if !okU || !okV || ou.Len() <= 0 || ov.Len() <= 0 {
		return facing{}, false
	}
	return facing{
		loFace: loFace, hiFace: hiFace,
		loCond: loCond, hiCond: hiCond,
		overU: ou, overV: ov,
		h: bot - top,
	}, true
}

// addInduced instantiates the induced basis function(s) on one face of a
// facing pair: a flat template over the shadow (unless the shadow covers
// the whole face, which would duplicate the face basis function) plus
// reflected arch templates along each direction in which the face extends
// beyond the shadow (paper Figure 2).
//
// In the default merged mode, the flat and arch templates are assembled
// into a single basis function with the arch-to-flat amplitude ratio fixed
// by the template library's calibration (paper Section 2.2: templates are
// assembled "with proper parameter vectors p"); in SeparateInduced mode,
// the shadow and each direction's arch pair become independent functions.
//
// The templates are built in one fixed array on the stack (the shadow,
// then at most two arches per direction) and copied to the staging array
// by collect; the neighbour intervals go to the builder's reused scratch.
func (b *builder) addInduced(face geom.Rect, cond int, p *facing, faceShadows []geom.Rect) {
	shadow := p.shadow(face)

	minEdge := math.Min(face.U.Len(), face.V.Len())
	if math.Min(shadow.U.Len(), shadow.V.Len()) < minShadowFrac*minEdge {
		return
	}

	covers := shadow.U.Len() >= face.U.Len()-1e-15*minEdge &&
		shadow.V.Len() >= face.V.Len()-1e-15*minEdge

	// Arch windows: clipped at midpoints toward neighboring shadows.
	b.nbU, b.nbV = b.nbU[:0], b.nbV[:0]
	for _, other := range faceShadows {
		if other == shadow {
			continue
		}
		if other.V.Overlaps(shadow.V) {
			b.nbU = append(b.nbU, other.U)
		}
		if other.U.Overlaps(shadow.U) {
			b.nbV = append(b.nbV, other.V)
		}
	}
	winU := clipWindow(shadow.U, face.U, b.nbU)
	winV := clipWindow(shadow.V, face.V, b.nbV)

	var buf [5]Template
	buf[0] = Template{Support: shadow, Dir: VaryNone, Shape: FlatShape{}, Amplitude: 1}
	archU := b.archTemplates(buf[1:1], winU, shadow, p.h, true)
	archV := b.archTemplates(buf[1+len(archU):1+len(archU)], winV, shadow, p.h, false)
	arches := buf[1 : 1+len(archU)+len(archV)]

	if b.opt.SeparateInduced {
		if !covers {
			b.collect(cond, KindShadow, buf[0])
		}
		if len(archU) > 0 {
			b.collect(cond, KindArchPair, archU...)
		}
		if len(archV) > 0 {
			b.collect(cond, KindArchPair, archV...)
		}
		return
	}

	if covers {
		// No shadow template: the arch amplitudes are relative to each
		// other only (equal, as instantiated).
		if len(arches) > 0 {
			b.collect(cond, KindArchPair, arches...)
		}
		return
	}
	// Merged: shadow flat at amplitude 1, arches at the library ratio
	// R(h) = archAmpFactor * min(shadow edge)/h - 1 (from the b(h)/a(h)
	// fits of the extraction pipeline). The calibration only covers
	// ordinary crossing geometries (R in roughly [0.5, 4]); outside that
	// range — extreme aspect ratios such as via landing gaps — the pair
	// falls back to independent shadow/arch functions so the solver
	// determines the amplitudes itself.
	ratio := archAmpFactor*math.Min(shadow.U.Len(), shadow.V.Len())/p.h - 1
	if len(arches) == 0 || ratio < 0.5 || ratio > 4 {
		b.collect(cond, KindShadow, buf[0])
		if len(archU) > 0 {
			b.collect(cond, KindArchPair, archU...)
		}
		if len(archV) > 0 {
			b.collect(cond, KindArchPair, archV...)
		}
		return
	}
	for i := range arches {
		arches[i].Amplitude = ratio
	}
	b.collect(cond, KindShadow, buf[:1+len(arches)]...)
}

// archTemplates appends to dst the reflected arch templates flanking the
// shadow along the chosen direction (alongU selects the U axis), within the
// allowed window win (the face clipped at midpoints toward neighboring
// shadows). Each side with available extension contributes one arch
// template (the reflected pair of Figure 2), at unit amplitude.
func (b *builder) archTemplates(dst []Template, win geom.Interval, shadow geom.Rect, h float64, alongU bool) []Template {
	shadowIv := shadow.V
	if alongU {
		shadowIv = shadow.U
	}
	le := extFactor * h
	li := math.Min(inFactor*h, shadowIv.Len()/2)
	decay := decayFactor * h

	minExt := 0.05 * h
	// Left arch: extension toward decreasing coordinate.
	if ext := shadowIv.Lo - win.Lo; ext > minExt {
		lo := math.Max(win.Lo, shadowIv.Lo-le)
		hi := shadowIv.Lo + li
		dst = append(dst, archTemplate(shadow, alongU, lo, hi, shadowIv.Lo, decay))
	}
	// Right arch: extension toward increasing coordinate.
	if ext := win.Hi - shadowIv.Hi; ext > minExt {
		lo := shadowIv.Hi - li
		hi := math.Min(win.Hi, shadowIv.Hi+le)
		dst = append(dst, archTemplate(shadow, alongU, lo, hi, shadowIv.Hi, decay))
	}
	return dst
}

// archTemplate builds one arch template spanning [lo, hi] along the varying
// direction (peak at edge, decay length decay in physical units), covering
// the shadow extent in the perpendicular direction.
func archTemplate(shadow geom.Rect, alongU bool, lo, hi, edge, decay float64) Template {
	sup := shadow
	if alongU {
		sup.U = geom.Interval{Lo: lo, Hi: hi}
		sup.V = shadow.V
	} else {
		sup.V = geom.Interval{Lo: lo, Hi: hi}
		sup.U = shadow.U
	}
	ln := hi - lo
	lambda := decay / ln
	if lambda < 1e-3 {
		lambda = 1e-3
	}
	shape := ArchShape{
		EdgePos:   (edge - lo) / ln,
		LambdaIn:  lambda,
		LambdaOut: lambda,
	}
	dir := VaryV
	if alongU {
		dir = VaryU
	}
	return Template{Support: sup, Dir: dir, Shape: shape, Amplitude: 1}
}
