package serve

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"parbem/internal/geom"
	"parbem/internal/geomio"
)

// BenchmarkServeExtract measures end-to-end /extract request
// throughput: cold is a fresh server (and engine) per request — the
// one-shot CLI cost the service exists to amortize — and warm is the
// steady state against a long-running server whose plan cache is hot.
// The warm/cold ratio is the service-layer amortization the ROADMAP
// benchmark record tracks.
func BenchmarkServeExtract(b *testing.B) {
	var sb strings.Builder
	if err := geomio.Write(&sb, geom.DefaultCrossingPair().Build(), 0); err != nil {
		b.Fatal(err)
	}
	req := &ExtractRequest{
		Geometry: sb.String(), EdgeM: 0.4e-6,
		Backend: "fastcap", Precond: "block", Tol: 1e-6,
	}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := New(Options{Workers: 2})
			hs := httptest.NewServer(s.Handler())
			if _, err := NewClient(hs.URL).Extract(ctx, req); err != nil {
				b.Fatal(err)
			}
			hs.Close()
			s.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		benchWarm(b, ctx, req, Options{Workers: 2})
	})
	// Synchronous extracts never touch the journal, so a durable server
	// must serve them at the same warm rate (acceptance bound: < 5%
	// regression vs warm).
	b.Run("warm-journal", func(b *testing.B) {
		benchWarm(b, ctx, req, Options{Workers: 2, DataDir: b.TempDir()})
	})
}

// benchWarm measures steady-state /extract latency against one
// long-running server configured by opt.
func benchWarm(b *testing.B, ctx context.Context, req *ExtractRequest, opt Options) {
	s := New(opt)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()
	c := NewClient(hs.URL)
	if _, err := c.Extract(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Extract(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicaColdJoin is the number behind ROADMAP item 8: what one
// request for a family costs a replica that has never seen it, by where
// the stage artifacts come from. Per shape: "cold" builds everything and
// keeps nothing; "write-through" builds everything and persists it (the
// price of having a store); "peer" is a fresh replica with an empty
// store beside a warm peer (the failover case: one HTTP fetch per
// artifact over loopback); "disk" is a replica restarted over the store
// it filled before. Only the request is timed, not the server start.
func BenchmarkReplicaColdJoin(b *testing.B) {
	ctx := context.Background()
	for _, sh := range []struct {
		name    string
		st      *geom.Structure
		edge    float64
		backend string
		long    bool // seconds per request: skipped under -short
	}{
		{"crossing-524", geom.DefaultCrossingPair().Build(), 0.4e-6, "dense", false},
		{"bus2x2-120", geom.DefaultBus(2, 2).Build(), 1e-6, "dense", false},
		{"bus3x3-228", geom.DefaultBus(3, 3).Build(), 1e-6, "dense", false},
		{"bus4x4-1088", geom.DefaultBus(4, 4).Build(), 0.5e-6, "dense", false},
		{"bus6x6-2208-fmm", geom.DefaultBus(6, 6).Build(), 0.5e-6, "fastcap", true},
	} {
		if sh.long && testing.Short() {
			continue
		}
		req := &ExtractRequest{Geometry: geoText(b, sh.st), EdgeM: sh.edge, Backend: sh.backend}
		// once serves the request on a fresh server, timing the request
		// alone, and leaves the server to the caller.
		once := func(b *testing.B, opt Options) (*Server, *httptest.Server) {
			b.StopTimer()
			opt.Workers = 2
			s, err := Open(opt)
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			b.StartTimer()
			_, err = NewClient(ts.URL).Extract(ctx, req)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			return s, ts
		}
		each := func(b *testing.B, opt func() Options) {
			for i := 0; i < b.N; i++ {
				s, ts := once(b, opt())
				ts.Close()
				s.Close()
			}
		}
		b.Run(sh.name+"/cold", func(b *testing.B) {
			each(b, func() Options { return Options{} })
		})
		b.Run(sh.name+"/write-through", func(b *testing.B) {
			each(b, func() Options { return Options{ArtifactDir: b.TempDir()} })
		})
		b.Run(sh.name+"/peer", func(b *testing.B) {
			warm, wts := once(b, Options{ArtifactDir: b.TempDir()})
			defer warm.Close()
			defer wts.Close()
			b.ResetTimer()
			each(b, func() Options {
				return Options{ArtifactDir: b.TempDir(), Peers: []string{wts.URL}}
			})
		})
		b.Run(sh.name+"/disk", func(b *testing.B) {
			dir := b.TempDir()
			warm, wts := once(b, Options{ArtifactDir: dir})
			wts.Close()
			warm.Close()
			b.ResetTimer()
			each(b, func() Options { return Options{ArtifactDir: dir} })
		})
	}
}
