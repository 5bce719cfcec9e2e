package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"parbem"
	"parbem/internal/geomio"
	"parbem/internal/serve"
)

// serveMix is the service under a mix of repeated, perturbed and new
// geometries.
var serveMix = &workloadDef{
	name:   "serve_mix",
	why:    "p closed-loop clients POST /extract to an in-process capxd: 30% repeats, 50% H variants, 20% unseen family keys over four corpus shapes (dense); serve, batch, plan reuse; bypasses fmm and pfft",
	expect: time.Second,
	setup:  setupServe,
	writeRef: func(dir string) error {
		refs, err := serveReferences()
		if err != nil {
			return err
		}
		return writeReference(dir, "serve_mix", "parbem.ExtractReference (dense direct) at each family's base edge, one case per family and H",
			panelLimit, refs.cases)
	},
	liveRefs: serveReferences,
}

// serveFamily is one golden-corpus shape regenerated from its geom spec,
// with the values its H-like parameter takes.
type serveFamily struct {
	name  string
	edge  float64 // base panel edge, m
	hs    []float64
	build func(h float64) *parbem.Structure
}

func steps(from, step float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = from + float64(i)*step
	}
	return v
}

// All four stay under 1800 panels, so backend auto resolves to dense:
// what corpus-sized requests get.
var serveFamilies = []serveFamily{
	{"crossing", 0.4e-6, steps(0.30e-6, 0.05e-6, 8), func(h float64) *parbem.Structure {
		sp := parbem.NewCrossingPair()
		sp.H = h
		return sp.Build()
	}},
	{"bus2x2", 1e-6, steps(0.6e-6, 0.1e-6, 8), func(h float64) *parbem.Structure {
		sp := parbem.NewBus(2, 2)
		sp.H = h
		return sp.Build()
	}},
	{"bus3x3", 1e-6, steps(0.6e-6, 0.1e-6, 8), func(h float64) *parbem.Structure {
		sp := parbem.NewBus(3, 3)
		sp.H = h
		return sp.Build()
	}},
	{"plates", 1e-6, steps(0.30e-6, 0.05e-6, 8), func(gap float64) *parbem.Structure {
		const side, thick = 6e-6, 0.2e-6
		return &parbem.Structure{Name: "plates", Conductors: []*parbem.Conductor{
			{Name: "bot", Boxes: []parbem.Box{parbem.NewBox(parbem.Vec3{}, parbem.Vec3{X: side, Y: side, Z: thick})}},
			{Name: "top", Boxes: []parbem.Box{parbem.NewBox(parbem.Vec3{Z: thick + gap}, parbem.Vec3{X: side, Y: side, Z: 2*thick + gap})}},
		}}
	}},
}

func serveKey(family, h int) string { return fmt.Sprintf("%s/h%d", serveFamilies[family].name, h) }

// serveReferences solves every family at every H dense-direct at the
// family's base edge. The cold class perturbs the edge in the fourth
// digit, which leaves every panel count as it was, so one reference per
// (family, H) checks all three classes.
func serveReferences() (*references, error) {
	r := &references{limit: panelLimit, cases: map[string]*parbem.Matrix{}}
	for f, fam := range serveFamilies {
		for h, hv := range fam.hs {
			res, err := parbem.ExtractReference(fam.build(hv), fam.edge)
			if err != nil {
				return nil, err
			}
			r.cases[serveKey(f, h)] = res.C
		}
	}
	return r, nil
}

// Request classes and how many of each one family gets in a block of the
// stream: 30% hit, 50% variant, 20% cold, every family alike. Exact
// shares per block keep the mix, and so the rate, the same for every
// seed; the seed decides the order and the H values.
const (
	classHit     = "hit"     // byte-identical repeat of the family's last request
	classVariant = "variant" // same family key, H moved: partial near-field reuse
	classCold    = "cold"    // edge perturbed: a family key never seen before
)

var blockShares = []struct {
	class string
	n     int
}{{classHit, 3}, {classVariant, 5}, {classCold, 2}}

// serveBlock is the length of one block: the cycle of the stream, every
// block being the same work in another order.
var serveBlock = 10 * len(serveFamilies)

// serveReq is one generated request: all the program under test sees is
// body.
type serveReq struct {
	class  string
	family int
	h      int
	body   []byte
}

// serveStream generates the request stream of a seed, lazily and
// deterministically: the i-th request depends on the seed and i only.
type serveStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	reqs  []serveReq
	cur   []int    // per family: current H index
	last  [][]byte // per family: body of its last request
	colds []int    // per family: cold requests so far
}

func newServeStream(seed int64) *serveStream {
	s := &serveStream{rng: rand.New(rand.NewSource(seed))}
	for f, fam := range serveFamilies {
		h := len(fam.hs) / 2
		s.cur = append(s.cur, h)
		s.last = append(s.last, encodeRequest(f, h, fam.edge))
		s.colds = append(s.colds, 0)
	}
	return s
}

// warmups are the requests set-up sends before timing: one per family,
// at the H and edge the stream starts from.
func (s *serveStream) warmups() []serveReq {
	w := make([]serveReq, len(serveFamilies))
	for f := range w {
		w[f] = serveReq{class: classCold, family: f, h: s.cur[f], body: s.last[f]}
	}
	return w
}

func encodeRequest(family, h int, edge float64) []byte {
	fam := serveFamilies[family]
	var geo bytes.Buffer
	if err := parbem.WriteStructure(&geo, fam.build(fam.hs[h]), 0); err != nil {
		panic(err) // writing to a buffer cannot fail
	}
	body, err := json.Marshal(serve.ExtractRequest{Geometry: geo.String(), EdgeM: edge})
	if err != nil {
		panic(err)
	}
	return body
}

func (s *serveStream) get(i int) serveReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i >= len(s.reqs) {
		s.extend()
	}
	return s.reqs[i]
}

// extend appends one block.
func (s *serveStream) extend() {
	type slot struct {
		class  string
		family int
	}
	var block []slot
	for f := range serveFamilies {
		for _, sh := range blockShares {
			for k := 0; k < sh.n; k++ {
				block = append(block, slot{sh.class, f})
			}
		}
	}
	s.rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	for _, sl := range block {
		f, fam := sl.family, serveFamilies[sl.family]
		switch sl.class {
		case classVariant:
			h := s.rng.Intn(len(fam.hs) - 1)
			if h >= s.cur[f] {
				h++ // never the current H: the geometry must change
			}
			s.cur[f] = h
			s.last[f] = encodeRequest(f, h, fam.edge)
		case classCold:
			s.colds[f]++
			s.last[f] = encodeRequest(f, s.cur[f], fam.edge*(1+1e-4*float64(s.colds[f])))
		}
		s.reqs = append(s.reqs, serveReq{class: sl.class, family: f, h: s.cur[f], body: s.last[f]})
	}
}

type serveInst struct {
	cfg    config
	refs   *references
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	stream *serveStream
	base   serveCounters // after warm-up
}

func setupServe(cfg config, refs *references) (instance, error) {
	srv, err := serve.Open(serve.Options{Workers: cfg.p, WorkerBudget: 1})
	if err != nil {
		return nil, err
	}
	in := &serveInst{cfg: cfg, refs: refs, srv: srv, stream: newServeStream(cfg.seed)}
	in.ts = httptest.NewServer(srv.Handler())
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.p}}
	for _, w := range in.stream.warmups() {
		if o := in.send(context.Background(), -1, w, nil); o.fault != nil {
			in.close()
			return nil, o.fault
		}
	}
	in.stream.get(2047) // generate ahead, outside the timed window
	if in.base, err = in.counters(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *serveInst) traceShape() (int, int) { return 0, 1 }
func (in *serveInst) cycle() int             { return serveBlock }
func (in *serveInst) clients() int           { return in.cfg.p }

func (in *serveInst) close() {
	in.client.CloseIdleConnections()
	in.ts.Close()
	in.srv.Close()
}

func (in *serveInst) op(ctx context.Context, i int, rec *recorder) outcome {
	return in.send(ctx, i, in.stream.get(i), rec)
}

// send is one round trip: POST the body, read the reply, check it.
func (in *serveInst) send(ctx context.Context, i int, r serveReq, rec *recorder) (o outcome) {
	o.class = r.class
	root, end := rec.begin(i, 0, "serve.request")
	resp, data, err := in.post(ctx, r.body)
	end()
	replied := rec.now()
	if err != nil {
		o.fault = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.fault = fmt.Errorf("%s request refused: HTTP %d: %s", r.class, resp.StatusCode, strings.TrimSpace(string(data)))
		return o
	}
	var out serve.ExtractResponse
	if err := json.Unmarshal(data, &out); err != nil {
		o.fault = fmt.Errorf("bad extract response: %w", err)
		return o
	}
	o.facts = opFacts{iters: out.Iterations, serverMs: out.TotalMs, respBytes: len(data)}
	if rec != nil && out.Reused != "" && r.class != classHit {
		// The response carries the server's own set-up/solve split (a
		// hit repeats the original build's, so it has no children).
		setup, solve := int64(out.SetupMs*1e6), int64(out.SolveMs*1e6)
		start := replied - int64(out.TotalMs*1e6)
		rec.add(i, root, "serve.setup", start, setup)
		rec.add(i, root, "serve.solve", start+setup, solve)
		o.facts.spanned = (out.SetupMs + out.SolveMs) / 1e3
	}
	o.relErr, o.fault = in.refs.check(serveKey(r.family, r.h), matrixOf(out.CFarads))
	return o
}

func (in *serveInst) post(ctx context.Context, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, in.ts.URL+"/extract", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := in.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// serveCounters are the server's own counters the probes difference.
type serveCounters struct {
	stats          serve.Stats
	waitSum, waitN float64 // parbem_queue_wait_seconds, interactive class
}

func (in *serveInst) counters() (c serveCounters, err error) {
	get := func(path string) ([]byte, error) {
		resp, err := in.client.Get(in.ts.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	data, err := get("/stats")
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c.stats); err != nil {
		return c, err
	}
	if data, err = get("/metrics"); err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		switch name {
		case `parbem_queue_wait_seconds_sum{class="interactive"}`:
			c.waitSum, _ = strconv.ParseFloat(val, 64)
		case `parbem_queue_wait_seconds_count{class="interactive"}`:
			c.waitN, _ = strconv.ParseFloat(val, 64)
		}
	}
	return c, nil
}

func (in *serveInst) probes(cfg config, rec *recorder, untraced, traced []outcome, led map[string]float64) error {
	byClass := map[string][]float64{}
	var overhead, kb []float64
	for _, o := range untraced {
		byClass[o.class] = append(byClass[o.class], 1e3*o.dur)
		overhead = append(overhead, 1e3*o.dur-o.facts.serverMs)
		kb = append(kb, float64(o.facts.respBytes)/1024)
	}
	led["serve.hit_ms"] = median(byClass[classHit])
	led["serve.variant_ms"] = median(byClass[classVariant])
	led["serve.cold_ms"] = median(byClass[classCold])
	led["serve.overhead_ms"] = median(overhead)
	led["serve.resp_kb"] = median(kb)

	now, err := in.counters()
	if err != nil {
		return err
	}
	if n := now.waitN - in.base.waitN; n > 0 {
		led["serve.queue_wait_ms"] = 1e3 * (now.waitSum - in.base.waitSum) / n
	}
	e1, e0 := now.stats.Engine, in.base.stats.Engine
	if looked := float64(e1.StateHits-e0.StateHits) + float64(e1.StateMisses-e0.StateMisses); looked > 0 {
		led["serve.state_hit_ratio"] = float64(e1.StateHits-e0.StateHits) / looked
	}
	rejected := func(s serve.Stats) uint64 {
		return s.RejectedQueueFull + s.RejectedRateLimited + s.RejectedDraining
	}
	led["serve.rejected"] = float64(rejected(now.stats) - rejected(in.base.stats))

	body := encodeRequest(0, 0, serveFamilies[0].edge) // the crossing pair, the largest body
	led["serve.decode_us"] = 1e6 * medianOf(200, func() {
		_, _, err = serve.Limits{}.DecodeExtract(bytes.NewReader(body))
	})
	if err != nil {
		return err
	}
	var req serve.ExtractRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	led["geomio.read_us"] = 1e6 * medianOf(200, func() { _, err = geomio.Read(strings.NewReader(req.Geometry)) })
	return err
}
