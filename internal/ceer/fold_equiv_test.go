package ceer

import (
	"context"
	"math"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/zoo"
)

// equivTol is the folded-vs-naive tolerance: count × prediction differs
// from count repeated additions only at ulp level.
const equivTol = 1e-9

func relDiff(a, b float64) float64 {
	//lint:ignore floatcmp exact equality is the fast path of this tolerance helper
	if a == b {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

func checkIterEqual(t *testing.T, ctx string, folded, naive IterPrediction) {
	t.Helper()
	fields := []struct {
		name string
		f, n float64
	}{
		{"HeavySeconds", folded.HeavySeconds, naive.HeavySeconds},
		{"LightSeconds", folded.LightSeconds, naive.LightSeconds},
		{"CPUSeconds", folded.CPUSeconds, naive.CPUSeconds},
		{"CommSeconds", folded.CommSeconds, naive.CommSeconds},
		{"PerIterSeconds", folded.PerIterSeconds, naive.PerIterSeconds},
	}
	for _, f := range fields {
		if d := relDiff(f.f, f.n); d > equivTol {
			t.Errorf("%s: %s folded %v vs naive %v (rel diff %.2e)", ctx, f.name, f.f, f.n, d)
		}
	}
	if len(folded.UnseenHeavy) != len(naive.UnseenHeavy) {
		t.Errorf("%s: unseen-heavy lists differ: %v vs %v", ctx, folded.UnseenHeavy, naive.UnseenHeavy)
		return
	}
	for i := range folded.UnseenHeavy {
		if folded.UnseenHeavy[i] != naive.UnseenHeavy[i] {
			t.Errorf("%s: unseen-heavy lists differ: %v vs %v", ctx, folded.UnseenHeavy, naive.UnseenHeavy)
			return
		}
	}
}

// TestFoldedMatchesUnfolded is the tentpole correctness pin: the folded
// path (Predictor.PredictIteration, a one-graph compile) must reproduce
// the naive per-node walk on every zoo CNN × every registered device ×
// every trained k, within float tolerance.
func TestFoldedMatchesUnfolded(t *testing.T) {
	p, _ := predictor(t)
	for _, name := range zoo.Names() {
		g := zoo.MustBuild(name, 32)
		for _, m := range gpu.All() {
			for _, k := range []int{1, 2, 4} {
				folded, err := p.PredictIteration(g, m, k, Full)
				if err != nil {
					t.Fatalf("%s/%s/k=%d folded: %v", name, m, k, err)
				}
				naive, err := p.PredictIterationUnfolded(g, m, k, Full)
				if err != nil {
					t.Fatalf("%s/%s/k=%d naive: %v", name, m, k, err)
				}
				checkIterEqual(t, name+"/"+string(m), folded, naive)
			}
			// k=8 exceeds the trained comm range (Pipeline.MaxK = 4): the
			// op-sum is k-independent, so NoComm still compares, and the
			// Full variant must fail identically on both paths.
			folded, err := p.PredictIteration(g, m, 8, NoComm)
			if err != nil {
				t.Fatalf("%s/%s/k=8 folded no-comm: %v", name, m, err)
			}
			naive, err := p.PredictIterationUnfolded(g, m, 8, NoComm)
			if err != nil {
				t.Fatalf("%s/%s/k=8 naive no-comm: %v", name, m, err)
			}
			checkIterEqual(t, name+"/"+string(m)+"/k=8", folded, naive)
			if _, err := p.PredictIteration(g, m, 8, Full); err == nil {
				t.Errorf("%s/%s: folded Full at untrained k=8 should error", name, m)
			}
			if _, err := p.PredictIterationUnfolded(g, m, 8, Full); err == nil {
				t.Errorf("%s/%s: naive Full at untrained k=8 should error", name, m)
			}
		}
	}
}

// TestFoldedMatchesUnfoldedVariants covers the ablation assembly.
func TestFoldedMatchesUnfoldedVariants(t *testing.T) {
	p, _ := predictor(t)
	for _, name := range []string{"alexnet", "inception-resnet-v2"} {
		g := zoo.MustBuild(name, 32)
		for _, v := range []Variant{Full, NoComm, HeavyOnly, HeavyOnlyNoComm} {
			folded, err := p.PredictIteration(g, gpu.V100, 2, v)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := p.PredictIterationUnfolded(g, gpu.V100, 2, v)
			if err != nil {
				t.Fatal(err)
			}
			checkIterEqual(t, name+"/"+v.String(), folded, naive)
		}
	}
}

// TestFoldedMatchesUnfoldedUnseen pins the degraded-prediction path: a
// predictor trained without the inception family must fold identically,
// unseen-heavy warnings included.
func TestFoldedMatchesUnfoldedUnseen(t *testing.T) {
	pl := DefaultPipeline(13)
	pl.ProfileIterations = 20
	pl.CommIterations = 5
	p, _, err := pl.TrainOn(context.Background(), zoo.Build, []string{"vgg-11", "resnet-50", "alexnet"})
	if err != nil {
		t.Fatal(err)
	}
	g := zoo.MustBuild("inception-v4", 32)
	folded, err := p.PredictIteration(g, gpu.T4, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := p.PredictIterationUnfolded(g, gpu.T4, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	checkIterEqual(t, "inception-v4/unseen", folded, naive)
	if len(folded.UnseenHeavy) == 0 {
		t.Error("expected unseen heavy types for an inception net on a vgg/resnet-trained predictor")
	}
}

// naiveRecommend mirrors Recommend candidate for candidate but predicts
// through the unfolded path — the reference for the sweep-hoist test.
func naiveRecommend(p *Predictor, g *graph.Graph, ds dataset.Dataset, pricing cloud.Pricing,
	candidates []cloud.Config, obj Objective, constraints ...Constraint) (Recommendation, error) {
	rec := Recommendation{}
	bestScore := math.Inf(1)
	for _, cfg := range candidates {
		iter, err := p.PredictIterationUnfolded(g, cfg.GPU, cfg.K, Full)
		if err != nil {
			return Recommendation{}, err
		}
		pred, err := p.finishPrediction(g, cfg, ds, pricing, iter)
		if err != nil {
			return Recommendation{}, err
		}
		cand := Candidate{Prediction: pred, Feasible: true}
		for _, c := range constraints {
			if !c(pred) {
				cand.Feasible = false
				break
			}
		}
		if cand.Feasible {
			cand.Score = obj(pred.TotalSeconds, pred.CostUSD)
			if cand.Score < bestScore {
				bestScore = cand.Score
				rec.Best = cand
			}
		}
		rec.Candidates = append(rec.Candidates, cand)
	}
	return rec, nil
}

// TestRecommendMatchesNaiveSweep verifies the hoisted device×k sweep
// against a per-candidate unfolded sweep: identical winner, identical
// feasibility, and per-candidate predictions within tolerance.
func TestRecommendMatchesNaiveSweep(t *testing.T) {
	p, _ := predictor(t)
	for _, name := range zoo.TestSet() {
		g := zoo.MustBuild(name, 32)
		for _, obj := range []Objective{MinimizeCost, MinimizeTime} {
			cons := []Constraint{MaxHourlyBudget(20, 0), FitsGPUMemory(g)}
			got, err := p.Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4), obj, cons...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naiveRecommend(p, g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4), obj, cons...)
			if err != nil {
				t.Fatal(err)
			}
			if got.Best.Cfg != want.Best.Cfg {
				t.Errorf("%s: hoisted sweep picks %s, naive picks %s", name, got.Best.Cfg, want.Best.Cfg)
			}
			if len(got.Candidates) != len(want.Candidates) {
				t.Fatalf("%s: candidate counts differ: %d vs %d", name, len(got.Candidates), len(want.Candidates))
			}
			for i := range got.Candidates {
				gc, wc := got.Candidates[i], want.Candidates[i]
				if gc.Cfg != wc.Cfg || gc.Feasible != wc.Feasible {
					t.Errorf("%s: candidate %d differs: %s/%v vs %s/%v",
						name, i, gc.Cfg, gc.Feasible, wc.Cfg, wc.Feasible)
				}
				if d := relDiff(gc.TotalSeconds, wc.TotalSeconds); d > equivTol {
					t.Errorf("%s %s: TotalSeconds %v vs %v (rel diff %.2e)",
						name, gc.Cfg, gc.TotalSeconds, wc.TotalSeconds, d)
				}
				if d := relDiff(gc.CostUSD, wc.CostUSD); d > equivTol {
					t.Errorf("%s %s: CostUSD %v vs %v (rel diff %.2e)",
						name, gc.Cfg, gc.CostUSD, wc.CostUSD, d)
				}
			}
		}
	}
}

// TestFoldEvalReduction measures the fold's point on a fresh
// predictor: compiling the whole zoo runs at most one heavy-op
// regression per (heavy global class, device) — at least 5x fewer than
// the naive per-node sweep over every candidate — and the compiled
// sweep itself runs none.
func TestFoldEvalReduction(t *testing.T) {
	pl := DefaultPipeline(17)
	pl.ProfileIterations = 20
	pl.CommIterations = 5
	p, _, err := pl.TrainOn(context.Background(), zoo.Build, zoo.TrainingSet())
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*graph.Graph, 0, len(zoo.Names()))
	for _, name := range zoo.Names() {
		graphs = append(graphs, zoo.MustBuild(name, 32))
	}
	cands := cloud.Configs(4)

	base := p.ModelEvaluations()
	for _, g := range graphs {
		for _, cfg := range cands {
			if _, err := p.PredictIterationUnfolded(g, cfg.GPU, cfg.K, Full); err != nil {
				t.Fatal(err)
			}
		}
	}
	naive := p.ModelEvaluations() - base

	base = p.ModelEvaluations()
	c, err := Compile(p, graphs)
	if err != nil {
		t.Fatal(err)
	}
	compiled := p.ModelEvaluations() - base
	if compiled == 0 {
		t.Fatal("zoo compile ran zero evaluations — counter broken")
	}
	heavy := 0
	for _, cl := range c.fold.Classes() {
		if p.Class.Of(cl.Rep.Op.Type) == ops.HeavyGPU {
			heavy++
		}
	}
	if limit := uint64(heavy * len(gpu.All())); compiled > limit {
		t.Errorf("zoo compile ran %d evaluations, more than %d heavy classes x %d devices",
			compiled, heavy, len(gpu.All()))
	}
	ratio := float64(naive) / float64(compiled)
	t.Logf("zoo sweep: naive %d evals, compile %d evals (%.1fx reduction)", naive, compiled, ratio)
	if ratio < 5 {
		t.Errorf("eval reduction %.1fx, want >= 5x", ratio)
	}

	base = p.ModelEvaluations()
	for _, g := range graphs {
		if _, err := c.Recommend(g, dataset.ImageNet, cloud.OnDemand, cands, MinimizeCost); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.ModelEvaluations() - base; n != 0 {
		t.Errorf("compiled sweep ran %d evaluations, want 0", n)
	}
}
