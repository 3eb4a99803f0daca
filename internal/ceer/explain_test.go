package ceer

import (
	"context"
	"math"
	"testing"

	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
	"ceer/internal/zoo"
)

func TestExplainIteration(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("vgg-19", 32)
	ex, err := p.ExplainIteration(g, gpu.V100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Contributions) == 0 {
		t.Fatal("no contributions")
	}
	// Contributions sorted descending.
	for i := 1; i < len(ex.Contributions); i++ {
		if ex.Contributions[i].Seconds > ex.Contributions[i-1].Seconds {
			t.Error("contributions not sorted by predicted time")
		}
	}
	// Attribution plus comm must reassemble the prediction.
	sum := ex.Iter.CommSeconds
	for _, c := range ex.Contributions {
		sum += c.Seconds
		if c.Count <= 0 {
			t.Errorf("%s has non-positive count", c.OpType)
		}
	}
	if math.Abs(sum-ex.Iter.PerIterSeconds) > 1e-9*ex.Iter.PerIterSeconds {
		t.Errorf("attribution sums to %v, prediction is %v", sum, ex.Iter.PerIterSeconds)
	}
	// VGG-19's top contributor must be a conv-family op.
	top := ex.Contributions[0].OpType
	if top != ops.Conv2DBackpropFilter && top != ops.Conv2D && top != ops.Conv2DBackpropInput {
		t.Errorf("VGG-19 top contributor = %s, want a convolution op", top)
	}
	// Shares sum to ~1.
	shareSum := ex.CommShare
	for _, c := range ex.Contributions {
		shareSum += c.Share
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("shares sum to %v", shareSum)
	}
}

func TestExplainIterationPropagatesErrors(t *testing.T) {
	p, _ := predictor(t)
	g := zoo.MustBuild("alexnet", 32)
	if _, err := p.ExplainIteration(g, gpu.V100, 7); err == nil {
		t.Error("untrained k should error")
	}
}

// naiveAttribution is the unfolded oracle for attribution: every DAG
// node's predicted seconds (one regression per heavy node, medians
// otherwise), in node order.
func naiveAttribution(p *Predictor, g *graph.Graph, m gpu.ID) []float64 {
	secs := make([]float64, g.Len())
	for i, n := range g.Nodes() {
		t := n.Op.Type
		switch p.Class.Of(t) {
		case ops.HeavyGPU:
			if om, ok := p.OpModelFor(m, t); ok {
				secs[i] = p.evalHeavy(om, n.Op.Features())
			} else {
				secs[i] = p.LightMedian
			}
		case ops.LightGPU:
			secs[i] = p.LightMedian
		case ops.CPU:
			secs[i] = p.CPUMedian
		}
	}
	return secs
}

// TestExplainMatchesUnfolded pins both attributions against the
// unfolded oracle within 1e-9: per type for ExplainIteration, per node
// for ExplainNodes, on a fully trained predictor and on one that has
// never seen the inception family (unseen heavy types).
func TestExplainMatchesUnfolded(t *testing.T) {
	full, _ := predictor(t)
	pl := DefaultPipeline(13)
	pl.ProfileIterations = 20
	pl.CommIterations = 5
	partial, _, err := pl.TrainOn(context.Background(), zoo.Build, []string{"vgg-11", "resnet-50", "alexnet"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Predictor{full, partial} {
		for _, name := range []string{"inception-v4", "resnet-152", "vgg-19"} {
			g := zoo.MustBuild(name, 32)
			for _, m := range gpu.All() {
				where := name + "/" + string(m)
				secs := naiveAttribution(p, g, m)
				byType := make(map[ops.Type]float64)
				counts := make(map[ops.Type]int)
				for i, n := range g.Nodes() {
					byType[n.Op.Type] += secs[i]
					counts[n.Op.Type]++
				}

				ex, err := p.ExplainIteration(g, m, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(ex.Contributions) != len(byType) {
					t.Fatalf("%s: %d contributions, oracle has %d types", where, len(ex.Contributions), len(byType))
				}
				for _, c := range ex.Contributions {
					if d := relDiff(c.Seconds, byType[c.OpType]); d > equivTol || c.Count != counts[c.OpType] {
						t.Errorf("%s %s: %d × %v s, oracle %d × %v s (rel diff %.2e)",
							where, c.OpType, c.Count, c.Seconds, counts[c.OpType], byType[c.OpType], d)
					}
				}

				nodes, err := p.ExplainNodes(g, m)
				if err != nil {
					t.Fatal(err)
				}
				if len(nodes) != g.Len() {
					t.Fatalf("%s: %d node contributions for %d nodes", where, len(nodes), g.Len())
				}
				for _, n := range nodes {
					if d := relDiff(n.Seconds, secs[n.ID]); d > equivTol {
						t.Errorf("%s node %s: %v s, oracle %v s (rel diff %.2e)", where, n.Name, n.Seconds, secs[n.ID], d)
					}
				}
			}
		}
	}
}
