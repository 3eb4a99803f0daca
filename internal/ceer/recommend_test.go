package ceer

import (
	"errors"
	"testing"

	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/zoo"
)

// TestRecommendAllFilteredOut: when every candidate fails a constraint,
// Recommend must error but still return the full candidate table (the
// CLI renders it so the user sees why nothing fit).
func TestRecommendAllFilteredOut(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("resnet-50", 32)
	c, err := Compile(p, []*graph.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	cons := MaxHourlyBudget(0.001, 0)
	fromP, errP := p.Recommend(g, dataset.ImageNet, cloud.OnDemand, cloud.Configs(4), MinimizeCost, cons)
	fromC, errC := c.Recommend(g, dataset.ImageNet, cloud.OnDemand, cloud.Configs(4), MinimizeCost, cons)
	for _, tc := range []struct {
		name string
		rec  Recommendation
		err  error
	}{{"predictor", fromP, errP}, {"compiled", fromC, errC}} {
		name, rec, err := tc.name, tc.rec, tc.err
		if !errors.Is(err, ErrNoFeasible) {
			t.Fatalf("%s: all-infeasible sweep error = %v, want ErrNoFeasible", name, err)
		}
		if len(rec.Candidates) != 16 {
			t.Fatalf("%s: error path returned %d candidates, want the full 16", name, len(rec.Candidates))
		}
		for _, c := range rec.Candidates {
			if c.Feasible {
				t.Errorf("%s: %s marked feasible under an impossible hourly budget", name, c.Cfg)
			}
		}
		if rec.Best.Cfg != (cloud.Config{}) {
			t.Errorf("%s: Best should be zero-valued when nothing is feasible, got %s", name, rec.Best.Cfg)
		}
	}
}

// TestMaxTotalBudgetFilters checks the total-cost cap against the
// sweep's own unconstrained costs: a budget just above the cheapest
// candidate keeps the cost winner and rejects pricier configurations.
func TestMaxTotalBudgetFilters(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("alexnet", 32)
	free, err := p.Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4), MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	budget := free.Best.CostUSD * 1.01
	rec, err := p.Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4),
		MinimizeCost, MaxTotalBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Cfg != free.Best.Cfg {
		t.Errorf("budget %.4f changed the cost winner: %s vs %s", budget, rec.Best.Cfg, free.Best.Cfg)
	}
	infeasible := 0
	for _, c := range rec.Candidates {
		if c.Feasible && c.CostUSD > budget {
			t.Errorf("%s feasible at cost %.4f over budget %.4f", c.Cfg, c.CostUSD, budget)
		}
		if !c.Feasible {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Error("a near-minimal total budget should reject some candidates")
	}
}

// TestRecommendCombinedConstraints stacks all three built-in constraint
// kinds on one sweep.
func TestRecommendCombinedConstraints(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("vgg-19", 64) // over 8 GB: excludes the 8 GB M60 and 12 GB K80
	rec, err := p.Recommend(g, dataset.ImageNetSubset6400, cloud.OnDemand, cloud.Configs(4),
		MinimizeTime, MaxHourlyBudget(15, 0), MaxTotalBudget(1000), FitsGPUMemory(g))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Best.Feasible {
		t.Error("Best must be feasible")
	}
	for _, c := range rec.Candidates {
		if !c.Feasible {
			continue
		}
		if c.HourlyUSD > 15 || c.CostUSD > 1000 {
			t.Errorf("%s violates a budget: $%.2f/hr, $%.2f total", c.Cfg, c.HourlyUSD, c.CostUSD)
		}
		if c.Cfg.GPU == gpu.M60 || c.Cfg.GPU == gpu.K80 {
			t.Errorf("%s should be memory-infeasible for vgg-19@64", c.Cfg)
		}
	}
}

// TestRecommendInvalidConfig: an invalid candidate aborts the sweep.
func TestRecommendInvalidConfig(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("alexnet", 32)
	bad := []cloud.Config{{GPU: gpu.V100, K: 0}}
	if _, err := p.Recommend(g, dataset.ImageNet, cloud.OnDemand, bad, MinimizeCost); err == nil {
		t.Error("invalid config should error")
	}
}
