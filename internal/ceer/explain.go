package ceer

import (
	"sort"

	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/ops"
)

// TypeContribution attributes a slice of a predicted iteration to one
// operation type.
type TypeContribution struct {
	OpType ops.Type
	// Class is Ceer's classification of the type.
	Class ops.Class
	// Count is the number of instances in the graph.
	Count int
	// Seconds is the predicted per-iteration time attributed to the
	// type.
	Seconds float64
	// Share is Seconds over the whole predicted iteration (including
	// communication).
	Share float64
}

// Explanation decomposes one per-iteration prediction for reporting:
// per-type contributions sorted by predicted time, plus the
// communication overhead term.
type Explanation struct {
	Iter          IterPrediction
	Contributions []TypeContribution
	// CommShare is the communication overhead's share of the iteration.
	CommShare float64
}

// ExplainIteration predicts one training iteration and attributes the
// prediction to operation types — the "why is this CNN slow here"
// companion to PredictIteration. It compiles g alone per call (see
// CompiledPredictor.Explain); use ExplainNodes for a per-node
// breakdown.
func (p *Predictor) ExplainIteration(g *graph.Graph, m gpu.ID, k int) (*Explanation, error) {
	c, err := Compile(p, []*graph.Graph{g})
	if err != nil {
		return nil, err
	}
	return c.Explain(g, m, k)
}

// Explain predicts one training iteration of a compiled graph and
// attributes it to operation types (used by `ceer predict -explain`
// and /v1/explain): each type's seconds are Σ count × class time over
// the graph's classes of that type, read from the compiled tables.
// Contributions are sorted by predicted time (descending), ties by
// type.
func (c *CompiledPredictor) Explain(g *graph.Graph, m gpu.ID, k int) (*Explanation, error) {
	gi, di, err := c.locate(g, m)
	if err != nil {
		return nil, err
	}
	iter, err := c.assemble(gi, di, k, Full, c.classSums(gi, di))
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Iter: iter}
	classes := c.fold.Classes()
	times := c.times[di*c.nc : (di+1)*c.nc]
	// Classes are signature-sorted and a signature starts with its op
	// type, so one type's classes are contiguous in the reduction.
	for _, pc := range c.fold.PerGraph(gi) {
		t := classes[pc.Class].Rep.Op.Type
		n := len(ex.Contributions)
		if n == 0 || ex.Contributions[n-1].OpType != t {
			ex.Contributions = append(ex.Contributions, TypeContribution{OpType: t, Class: c.p.Class.Of(t)})
			n++
		}
		tc := &ex.Contributions[n-1]
		tc.Count += pc.Count
		tc.Seconds += float64(pc.Count) * times[pc.Class]
	}
	total := iter.PerIterSeconds
	if total > 0 {
		for i := range ex.Contributions {
			ex.Contributions[i].Share = ex.Contributions[i].Seconds / total
		}
		ex.CommShare = iter.CommSeconds / total
	}
	sort.Slice(ex.Contributions, func(i, j int) bool {
		if ex.Contributions[i].Seconds > ex.Contributions[j].Seconds {
			return true
		}
		if ex.Contributions[i].Seconds < ex.Contributions[j].Seconds {
			return false
		}
		return ex.Contributions[i].OpType < ex.Contributions[j].OpType
	})
	return ex, nil
}

// NodeContribution attributes predicted per-iteration time to one DAG
// node.
type NodeContribution struct {
	ID     graph.NodeID
	Name   string
	OpType ops.Type
	Class  ops.Class
	Phase  graph.Phase
	// Seconds is the node's predicted compute time.
	Seconds float64
}

// ExplainNodes attributes a predicted iteration node by node. It
// compiles g alone per call; see CompiledPredictor.ExplainNodes.
func (p *Predictor) ExplainNodes(g *graph.Graph, m gpu.ID) ([]NodeContribution, error) {
	c, err := Compile(p, []*graph.Graph{g})
	if err != nil {
		return nil, err
	}
	return c.ExplainNodes(g, m)
}

// ExplainNodes attributes a compiled graph's predicted iteration node
// by node — the per-node attribution for pinpointing an individual
// layer (used by `ceer predict -explain-nodes`). Each node's seconds
// are the compiled time of its signature's class. Nodes are returned
// sorted by predicted time (descending), ties by ID. The communication
// term has no node to attach to; read it from Explain.
func (c *CompiledPredictor) ExplainNodes(g *graph.Graph, m gpu.ID) ([]NodeContribution, error) {
	_, di, err := c.locate(g, m)
	if err != nil {
		return nil, err
	}
	classes := c.fold.Classes()
	times := c.times[di*c.nc : (di+1)*c.nc]
	fold := g.Fold()
	entries := fold.Entries()
	secs := make([]float64, len(entries))
	for i := range entries {
		ci := sort.Search(len(classes), func(j int) bool { return classes[j].Sig >= entries[i].Sig })
		secs[i] = times[ci]
	}
	out := make([]NodeContribution, 0, g.Len())
	for ni, n := range g.Nodes() {
		t := n.Op.Type
		out = append(out, NodeContribution{
			ID: n.ID, Name: n.Name, OpType: t, Class: c.p.Class.Of(t), Phase: n.Phase,
			Seconds: secs[fold.ClassOf(ni)],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds > out[j].Seconds {
			return true
		}
		if out[i].Seconds < out[j].Seconds {
			return false
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}
