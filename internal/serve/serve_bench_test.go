package serve

import (
	"testing"

	"ceer/internal/serve/loadgen"
)

// BenchmarkServePredict measures the full-sweep /v1/predict hot path —
// route, admission, parse, 17-candidate prediction, append-encoded
// body. Must report 0 allocs/op warm (gated via BENCH_serve.json).
func BenchmarkServePredict(b *testing.B) {
	s := warmServer(b)
	w := newNopWriter()
	req := hotRequest("/v1/predict", "model=resnet-50")
	s.ServeHTTP(w, req) // settle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServeRecommend measures the /v1/recommend hot path:
// RecommendInto over the full candidate set with a budget constraint.
// Must report 0 allocs/op warm.
func BenchmarkServeRecommend(b *testing.B) {
	s := warmServer(b)
	w := newNopWriter()
	req := hotRequest("/v1/recommend", "model=resnet-50&objective=cost&max_hourly_usd=50")
	s.ServeHTTP(w, req) // settle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServePredictOffBatch is BenchmarkServePredict at a batch
// size other than the compiled one: after the first request compiles
// that batch's tables, it must report 0 allocs/op like the compiled
// batch.
func BenchmarkServePredictOffBatch(b *testing.B) {
	s := warmServer(b)
	w := newNopWriter()
	req := hotRequest("/v1/predict", "model=resnet-50&batch=64")
	s.ServeHTTP(w, req) // first request: compiles the batch-64 tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServeRecommendOffBatch is BenchmarkServeRecommend at a batch
// size other than the compiled one; 0 allocs/op after the first
// request.
func BenchmarkServeRecommendOffBatch(b *testing.B) {
	s := warmServer(b)
	w := newNopWriter()
	req := hotRequest("/v1/recommend", "model=resnet-50&objective=cost&max_hourly_usd=50&batch=64")
	s.ServeHTTP(w, req) // first request: compiles the batch-64 tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

var benchSpec = loadgen.Spec{
	Seed:     1,
	Requests: 256,
	Models:   []string{"alexnet", "resnet-50", "vgg-16", "inception-v3"},
	Configs:  []string{"1xP2", "2xP3", "1xG4"},
}

// BenchmarkServeLoadgenClosed drives the daemon in-process with the
// deterministic load generator in closed-loop mode (4 workers,
// back-to-back) and reports latency percentiles and throughput — the
// numbers recorded into BENCH_serve.json by `make bench-serve`.
func BenchmarkServeLoadgenClosed(b *testing.B) {
	s := warmServer(b)
	target := loadgen.NewHandlerTarget(s)
	reqs := loadgen.Prepare(loadgen.Generate(benchSpec))
	var res *loadgen.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = loadgen.RunClosed(target, reqs, 4)
	}
	b.StopTimer()
	reportLoadgen(b, res)
}

// BenchmarkServeLoadgenOpen is the open-loop variant: Poisson arrivals
// at 20k req/s, latency measured from scheduled arrival (queueing
// delay included).
func BenchmarkServeLoadgenOpen(b *testing.B) {
	s := warmServer(b)
	target := loadgen.NewHandlerTarget(s)
	reqs := loadgen.Prepare(loadgen.Generate(benchSpec))
	arrivals := loadgen.PoissonArrivals(benchSpec.Seed, 20_000, len(reqs))
	var res *loadgen.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = loadgen.RunOpen(target, reqs, arrivals, 4)
	}
	b.StopTimer()
	reportLoadgen(b, res)
}

func reportLoadgen(b *testing.B, res *loadgen.Result) {
	b.Helper()
	if res == nil {
		return
	}
	for i, o := range res.Outcomes {
		if o.Status != 200 {
			b.Fatalf("request %d: status %d", i, o.Status)
		}
	}
	p50, p99, p999 := res.Percentiles()
	b.ReportMetric(p50, "p50_us")
	b.ReportMetric(p99, "p99_us")
	b.ReportMetric(p999, "p999_us")
	b.ReportMetric(res.Throughput(), "req_s")
}

// BenchmarkServeEncodePredict isolates the encoder: render the predict
// document into a warm scratch without the HTTP layer.
func BenchmarkServeEncodePredict(b *testing.B) {
	s := warmServer(b)
	sc := s.arena.get()
	defer s.arena.put(sc)
	sc.q.reset(s)
	sc.q.model = "resnet-50"
	mi := s.findModel("resnet-50")
	if mi < 0 {
		b.Fatal("resnet-50 not in zoo")
	}
	comp, g, _ := s.tablesFor(s.batch, mi)
	cands := s.candsByK[s.maxK]
	metas := s.metaByK[s.maxK]
	if status, msg := s.renderPredict(sc, comp, g, cands, metas); status != 200 {
		b.Fatalf("render: %d %s", status, msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _ := s.renderPredict(sc, comp, g, cands, metas); status != 200 {
			b.Fatal("render failed")
		}
	}
}
