// Benchmarks: one target per paper table/figure (see DESIGN.md's
// per-experiment index). Each bench regenerates its figure through the
// experiments harness and reports the figure's headline quantity as a
// custom metric, so `go test -bench=. -benchmem` doubles as the full
// reproduction run.
package ceer_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"ceer/internal/ceer"
	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/experiments"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/zoo"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

// benchContext trains Ceer once and shares it across all benches.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx, benchErr = experiments.NewContext(context.Background(), experiments.Options{
			Seed:              42,
			ProfileIterations: 100,
			MeasureIters:      12,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

func BenchmarkFig01DAGExport(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig01(ctx)
		if err != nil {
			b.Fatal(err)
		}
		nodes = r.Nodes
	}
	b.ReportMetric(float64(nodes), "dag-nodes")
}

func BenchmarkFig02HeavyOpTimes(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig02Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig02(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgRatioVsP3[gpu.K80], "P2/P3-ratio")
	b.ReportMetric(r.AvgRatioVsP3[gpu.T4], "G4/P3-ratio")
	b.ReportMetric(r.AvgRatioVsP3[gpu.M60], "G3/P3-ratio")
}

func BenchmarkFig03HeavyOpCosts(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig03Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig03(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.WinCounts[gpu.T4]), "G4-wins")
	b.ReportMetric(float64(r.WinCounts[gpu.V100]), "P3-wins")
}

func BenchmarkFig04ReluScaling(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig04Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig04(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	minR2 := 1.0
	for _, s := range r.Series {
		if s.R2 < minR2 {
			minR2 = s.R2
		}
	}
	b.ReportMetric(minR2, "min-R2")
}

func BenchmarkFig05VariabilityCDF(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig05Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig05(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 1.0
	for _, m := range gpu.All() {
		if f := r.FracBelow01[m]; f < worst {
			worst = f
		}
	}
	b.ReportMetric(worst*100, "pct-below-0.1")
}

func BenchmarkFig06DataParallelScaling(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig06Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig06(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgReduction[2]*100, "k2-reduction-pct")
	b.ReportMetric(r.AvgReduction[3]*100, "k3-reduction-pct")
	b.ReportMetric(r.AvgReduction[4]*100, "k4-reduction-pct")
}

func BenchmarkFig07CommOverhead(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig07Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig07(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	minR2 := 1.0
	for _, s := range r.Series {
		if s.R2 < minR2 {
			minR2 = s.R2
		}
	}
	b.ReportMetric(minR2, "min-R2")
}

func BenchmarkFig08Validation(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig08Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig08(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgAbsErr*100, "avg-err-pct")
	b.ReportMetric(boolMetric(r.RankingAgreement), "ranking-ok")
}

func BenchmarkFig09HourlyBudget(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig09Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig09(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(boolMetric(r.CeerMatchesObserved), "optimal-match")
}

func BenchmarkFig10TotalBudget(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BestPredicted.K), "best-P3-gpus")
	b.ReportMetric(r.CheapestFeasibleSlowdown, "cheapest-slowdown-x")
}

func BenchmarkFig11CostMinimization(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.CostMinResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig11(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgAbsErr*100, "cost-err-pct")
	b.ReportMetric(boolMetric(r.BestPredicted.GPU == gpu.T4 && r.BestPredicted.K == 1), "picked-1xG4")
}

func BenchmarkFig12MarketPrices(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.CostMinResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig12(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(boolMetric(r.BestPredicted.GPU == gpu.K80 && r.BestPredicted.K == 1), "picked-1xP2")
}

func BenchmarkSec3AClassShares(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClassShares(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec4AAblations(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Sec4AResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Sec4A(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeanErr[ceer.Full]*100, "full-err-pct")
	b.ReportMetric(r.MeanErr[ceer.NoComm]*100, "no-comm-err-pct")
	b.ReportMetric(r.MeanErr[ceer.HeavyOnlyNoComm]*100, "heavy-only-err-pct")
}

func BenchmarkSec4BOpModelQuality(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.Sec4BResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Sec4B(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MedianTestMAPE*100, "median-op-mape-pct")
	b.ReportMetric(r.R2Min, "min-train-R2")
}

func BenchmarkOverallAccuracy(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.OverallResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Overall(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeanErr*100, "mean-err-pct")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// campaignPipeline is the campaign benchmarked below: three training
// CNNs at a modest profiling depth — large enough that the per-(CNN,
// GPU, k) fan-out dominates, small enough to iterate.
func campaignPipeline(workers int) ceer.Pipeline {
	pl := ceer.DefaultPipeline(42)
	pl.ProfileIterations = 30
	pl.CommIterations = 8
	pl.Workers = workers
	return pl
}

var campaignBenchNames = []string{"vgg-11", "inception-v1", "resnet-50"}

func BenchmarkCampaignSerial(b *testing.B) {
	pl := campaignPipeline(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Campaign(context.Background(), zoo.Build, campaignBenchNames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignParallel runs the campaign at GOMAXPROCS workers and
// reports the wall-clock speedup over a serial reference run measured
// in the same process (the "speedup-vs-serial" metric; ~1.0 on a
// single-core runner, approaching the core count on multi-core ones).
func BenchmarkCampaignParallel(b *testing.B) {
	serial := campaignPipeline(1)
	start := time.Now()
	if _, err := serial.Campaign(context.Background(), zoo.Build, campaignBenchNames); err != nil {
		b.Fatal(err)
	}
	serialSec := time.Since(start).Seconds()

	pl := campaignPipeline(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Campaign(context.Background(), zoo.Build, campaignBenchNames); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	parallelSec := b.Elapsed().Seconds() / float64(b.N)
	if parallelSec > 0 {
		b.ReportMetric(serialSec/parallelSec, "speedup-vs-serial")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkBuildCacheHitRate measures amortized graph retrieval through
// the campaign's BuildCache; hit-rate approaches 1 as b.N grows because
// each architecture is only ever constructed once.
func BenchmarkBuildCacheHitRate(b *testing.B) {
	cache := graph.NewBuildCache(zoo.Build)
	names := zoo.TrainingSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if _, err := cache.Build(name, zoo.DefaultBatch); err != nil {
				b.Fatal(err)
			}
		}
	}
	hits, misses := cache.Stats()
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
}

// servingPipeline trains the compact predictor used by the serving-path
// benches below. A bench that counts model evaluations trains its own
// instance so the counter starts at zero.
func servingPipeline() ceer.Pipeline {
	pl := ceer.DefaultPipeline(7)
	pl.ProfileIterations = 30
	pl.CommIterations = 8
	return pl
}

var (
	servingOnce sync.Once
	servingPred *ceer.Predictor
	servingErr  error
)

// servingPredictor is the shared predictor for the per-iteration
// benches.
func servingPredictor(b *testing.B) *ceer.Predictor {
	b.Helper()
	servingOnce.Do(func() {
		pl := servingPipeline()
		servingPred, _, servingErr = pl.TrainOn(context.Background(), zoo.Build, zoo.TrainingSet())
	})
	if servingErr != nil {
		b.Fatal(servingErr)
	}
	return servingPred
}

// BenchmarkPredictIterationUnfolded is the naive per-node reference for
// BenchmarkPredictIterationCompiled.
func BenchmarkPredictIterationUnfolded(b *testing.B) {
	p := servingPredictor(b)
	g := zoo.MustBuild("resnet-152", 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictIterationUnfolded(g, gpu.V100, 4, ceer.Full); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	servingCompiledOnce sync.Once
	servingGraphs       []*graph.Graph
	servingCore         *ceer.CompiledPredictor
	servingCompiledErr  error
)

// servingCompiled returns the shared compiled core over the whole zoo
// (built from the shared serving predictor) plus the zoo graphs it was
// compiled from — the compiled set is keyed by graph pointer identity.
func servingCompiled(b *testing.B) (*ceer.CompiledPredictor, []*graph.Graph) {
	b.Helper()
	p := servingPredictor(b)
	servingCompiledOnce.Do(func() {
		for _, name := range zoo.Names() {
			servingGraphs = append(servingGraphs, zoo.MustBuild(name, 32))
		}
		servingCore, servingCompiledErr = ceer.Compile(p, servingGraphs)
	})
	if servingCompiledErr != nil {
		b.Fatal(servingCompiledErr)
	}
	return servingCore, servingGraphs
}

// BenchmarkPredictIterationCompiled measures the compiled serving core
// on the deepest zoo CNN: a pure gather-and-sum over the precompiled
// flat tables, no mutex, no allocation even on the first call.
// "table-kb" is the resident size of the whole zoo-wide table.
func BenchmarkPredictIterationCompiled(b *testing.B) {
	core, graphs := servingCompiled(b)
	var g *graph.Graph
	for _, cand := range graphs {
		if cand.Name == "resnet-152" {
			g = cand
		}
	}
	if g == nil {
		b.Fatal("resnet-152 missing from the compiled zoo")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PredictIteration(g, gpu.V100, 4, ceer.Full); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(core.Stats().TableBytes)/1024, "table-kb")
}

// BenchmarkCompileZoo measures the one-time build cost the compiled
// path front-loads: folding the 12-CNN zoo globally and evaluating
// every (device, class) and (graph, device, k) table cell.
// "build-evals" is the number of regression rows evaluated per compile.
func BenchmarkCompileZoo(b *testing.B) {
	p := servingPredictor(b)
	_, graphs := servingCompiled(b)
	b.ReportAllocs()
	b.ResetTimer()
	var core *ceer.CompiledPredictor
	for i := 0; i < b.N; i++ {
		var err error
		core, err = ceer.Compile(p, graphs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(core.Stats().BuildEvals), "build-evals")
}

// BenchmarkRecommendSweep serves the entire zoo through the compiled
// recommender — one RecommendInto table scan per CNN over all device×k
// candidates — and reports, against references measured in the same
// process: "speedup-vs-naive" (wall-clock vs a per-node unfolded
// sweep), "eval-reduction-x" (regression evaluations, naive sweep /
// zoo compile), and "compile-ms" (the one-time table build the
// compiled path amortizes). The steady state is allocation-free: every
// prediction is a gather over immutable flat tables into caller-owned
// Recommendations.
func BenchmarkRecommendSweep(b *testing.B) {
	pl := servingPipeline()
	p, _, err := pl.TrainOn(context.Background(), zoo.Build, zoo.TrainingSet())
	if err != nil {
		b.Fatal(err)
	}
	var graphs []*graph.Graph
	for _, name := range zoo.Names() {
		graphs = append(graphs, zoo.MustBuild(name, 32))
	}
	cands := cloud.Configs(4)

	// Naive reference: every candidate through the per-node path.
	base := p.ModelEvaluations()
	start := time.Now()
	for _, g := range graphs {
		for _, cfg := range cands {
			if _, err := p.PredictIterationUnfolded(g, cfg.GPU, cfg.K, ceer.Full); err != nil {
				b.Fatal(err)
			}
		}
	}
	naiveSec := time.Since(start).Seconds()
	naiveEvals := p.ModelEvaluations() - base

	// Compile the zoo-wide tables (the cost the compiled path pays
	// once), then sweep through caller-owned Recommendations.
	base = p.ModelEvaluations()
	start = time.Now()
	core, err := ceer.Compile(p, graphs)
	if err != nil {
		b.Fatal(err)
	}
	compileSec := time.Since(start).Seconds()
	compileEvals := p.ModelEvaluations() - base
	if compileEvals == 0 {
		b.Fatal("zoo compile ran zero evaluations")
	}
	recs := make([]ceer.Recommendation, len(graphs))
	sweep := func() {
		for gi, g := range graphs {
			if err := core.RecommendInto(&recs[gi], g, dataset.ImageNet, cloud.OnDemand, cands, ceer.MinimizeCost); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep() // warm-up: grows each Recommendation's candidate buffer once

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	b.ReportMetric(float64(naiveEvals)/float64(compileEvals), "eval-reduction-x")
	b.ReportMetric(compileSec*1e3, "compile-ms")
	if compiledSec := b.Elapsed().Seconds() / float64(b.N); compiledSec > 0 {
		b.ReportMetric(naiveSec/compiledSec, "speedup-vs-naive")
	}
}

func BenchmarkExtBatchSensitivity(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.ExtBatchResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.ExtBatch(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := r.Rows[0]
	for _, row := range r.Rows {
		if row.PerSampleMs < best.PerSampleMs {
			best = row
		}
	}
	b.ReportMetric(float64(best.Batch), "best-batch")
}

func BenchmarkExtMemoryMatrix(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.ExtMemoryResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.ExtMemory(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	infeasible := 0
	for _, row := range r.Rows {
		for _, fits := range row.FitsGPU {
			if !fits {
				infeasible++
			}
		}
	}
	b.ReportMetric(float64(infeasible), "infeasible-cells")
}

func BenchmarkExtSelectionAblation(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var r *experiments.ExtSelectionResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.ExtSelection(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeanErr["auto"]*100, "auto-err-pct")
	b.ReportMetric(r.MeanErr["all-linear"]*100, "linear-err-pct")
	b.ReportMetric(float64(r.QuadCount["auto"]), "auto-quadratics")
}
