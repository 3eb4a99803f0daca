package graph

import (
	"sort"

	"ceer/internal/ops"
)

// FoldEntry is one equivalence class of a graph's fold: every node
// whose op carries one canonical signature within one training phase.
// CNN DAGs are overwhelmingly repeated identical modules (a ResNet-152
// iteration holds hundreds of structurally identical convolutions), so
// the number of classes is typically a small fraction of the node
// count — the redundancy compiled prediction tables exploit.
type FoldEntry struct {
	// Sig is the ops-level canonical signature shared by the class.
	Sig ops.Signature
	// Phase is the training phase shared by the class's nodes. Folding
	// per phase keeps phase-level attribution possible; predictors that
	// are phase-oblivious simply see a slightly finer partition.
	Phase Phase
	// Rep is the first (lowest-ID) node of the class; any member is
	// interchangeable for cost purposes.
	Rep *Node
	// Count is the number of node instances in the class.
	Count int
	// Features caches Rep.Op.Features(), so per-class feature vectors
	// are extracted once at fold time rather than per prediction.
	Features []float64
}

// Fold is the multiset of unique (signature, phase) classes of one
// graph, in a deterministic order (ascending signature, then phase).
// Invariants: Σ Count over Entries equals the graph's node count, every
// class's nodes have pairwise identical feature vectors, and the fold
// of an immutable graph never changes.
type Fold struct {
	entries []FoldEntry
	// classOf maps a node's position in Graph.Nodes() to the index of
	// its class in entries, so per-node consumers (attribution) can
	// reuse one evaluation per class instead of re-deriving signatures.
	classOf []int
	nodes   int
}

// Entries returns the classes ordered by (signature, phase). The slice
// is shared and cached; do not modify it.
func (f *Fold) Entries() []FoldEntry { return f.entries }

// Len returns the number of unique classes.
func (f *Fold) Len() int { return len(f.entries) }

// ClassOf returns the index into Entries of the class containing the
// i-th node of Graph.Nodes().
func (f *Fold) ClassOf(i int) int { return f.classOf[i] }

// Nodes returns the total number of nodes folded (Σ Count).
func (f *Fold) Nodes() int { return f.nodes }

// Fold returns the graph's signature fold, computing it on first use
// and caching it for the graph's lifetime. Graphs are immutable once
// construction finishes, so the cache is never invalidated; call Fold
// only after the last Add.
func (g *Graph) Fold() *Fold {
	g.foldOnce.Do(func() { g.fold = g.computeFold() })
	return g.fold
}

type foldKey struct {
	sig   ops.Signature
	phase Phase
}

func (g *Graph) computeFold() *Fold {
	f := &Fold{nodes: len(g.nodes), classOf: make([]int, len(g.nodes))}
	idx := make(map[foldKey]int, len(g.nodes)/4+1)
	for ni, n := range g.nodes {
		k := foldKey{n.Op.Signature(), n.Phase}
		if i, ok := idx[k]; ok {
			f.entries[i].Count++
			f.classOf[ni] = i
			continue
		}
		idx[k] = len(f.entries)
		f.classOf[ni] = len(f.entries)
		f.entries = append(f.entries, FoldEntry{
			Sig:      k.sig,
			Phase:    n.Phase,
			Rep:      n,
			Count:    1,
			Features: n.Op.Features(),
		})
	}
	// Sort classes by (signature, phase), tracking the permutation so
	// classOf keeps pointing at the right entry.
	order := make([]int, len(f.entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &f.entries[order[i]], &f.entries[order[j]]
		if a.Sig != b.Sig {
			return a.Sig < b.Sig
		}
		return a.Phase < b.Phase
	})
	sorted := make([]FoldEntry, len(f.entries))
	perm := make([]int, len(f.entries)) // pre-sort index → sorted index
	for newIdx, oldIdx := range order {
		sorted[newIdx] = f.entries[oldIdx]
		perm[oldIdx] = newIdx
	}
	f.entries = sorted
	for ni := range f.classOf {
		f.classOf[ni] = perm[f.classOf[ni]]
	}
	return f
}
