package serve

import (
	"sync/atomic"

	"ceer"
)

// offBatchCap bounds how many (batch size, model) pairs other than the
// compiled batch keep tables: at most 64 zoo graphs (a few MB to a few
// tens of MB), e.g. five other batch sizes across the whole zoo. batch=
// is client-chosen, so the set evicts rather than grows.
const offBatchCap = 64

// offEntry is one off-batch (batch size, model) pair's serving state:
// the model's graph built at batch, owned by this entry (not the
// process-wide build cache), so evicting the entry frees it, and tables
// compiled over that graph alone. The graph does not depend on the
// predictor; only comp goes stale when the box is swapped.
type offEntry struct {
	batch int64
	mi    int // index into s.models
	g     *ceer.Graph
	comp  *ceer.CompiledSystem
	// hit records a read served from this entry since the set was last
	// published; the next publish moves hit entries ahead of the rest,
	// so eviction takes entries nobody read.
	hit atomic.Bool
}

// tablesFor resolves the compiled tables and the graph of zoo model mi
// (an index into s.models) at batch. The compiled batch reads the box.
// Any other batch reads its off-batch entry, which serves only while
// its tables were compiled from the box's current predictor, so a
// reload or calibration swap never leaves an off-batch read on stale
// tables. A pair without current tables is compiled on this request
// (compileOffBatch). Returns "" or the reason the batch cannot be
// served.
//
//hot:path
func (s *Server) tablesFor(batch int64, mi int) (*ceer.CompiledSystem, *ceer.Graph, string) {
	comp := s.box.Load()
	if batch == s.batch {
		return comp, s.models[mi].g, ""
	}
	if e := findOff(s.offBatch.Load(), batch, mi); e != nil && e.comp.Predictor() == comp.Predictor() {
		if !e.hit.Load() {
			e.hit.Store(true)
		}
		return e.comp, e.g, ""
	}
	return s.compileOffBatch(batch, mi)
}

// findOff returns the entry of set for (batch, mi), or nil.
//
//hot:path
func findOff(set *[]*offEntry, batch int64, mi int) *offEntry {
	if set == nil {
		return nil
	}
	for _, e := range *set {
		if e.batch == batch && e.mi == mi {
			return e
		}
	}
	return nil
}

// compileOffBatch is tablesFor's path for a pair without current
// tables. Under offBatchMu it re-checks the set (a concurrent request
// may have compiled the pair), then compiles the box's current
// predictor over the pair's graph: the entry's own graph when it has
// one (after a swap only the tables are recompiled), else a graph built
// with the uncached ceer.BuildModel. It publishes a new set by
// copy-on-write: the new entry, then the entries read since the last
// publish, then the rest, at most offBatchCap in all.
//
//hot:exempt cold first request per (batch size, model) and per generation: builds a graph and compiles its tables by design
func (s *Server) compileOffBatch(batch int64, mi int) (*ceer.CompiledSystem, *ceer.Graph, string) {
	s.offBatchMu.Lock()
	defer s.offBatchMu.Unlock()
	cur := s.offBatch.Load()
	pred := s.box.Load().Predictor()
	old := findOff(cur, batch, mi)
	if old != nil && old.comp.Predictor() == pred {
		return old.comp, old.g, ""
	}
	var g *ceer.Graph
	if old != nil {
		g = old.g
	} else {
		var err error
		if g, err = ceer.BuildModel(s.models[mi].name, batch); err != nil {
			return nil, nil, err.Error()
		}
	}
	comp, err := ceer.Compile(pred, g)
	if err != nil {
		return nil, nil, err.Error()
	}
	next := []*offEntry{{batch: batch, mi: mi, g: g, comp: comp}}
	if cur != nil {
		var rest []*offEntry
		for _, e := range *cur {
			switch {
			case e == old:
			case e.hit.Swap(false):
				next = append(next, e)
			default:
				rest = append(rest, e)
			}
		}
		next = append(next, rest...)
		if len(next) > offBatchCap {
			clear(next[offBatchCap:])
			next = next[:offBatchCap]
		}
	}
	s.offBatch.Store(&next)
	return comp, g, ""
}
