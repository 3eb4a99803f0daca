package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call made from the benchmark's own code into a
// module of the program under test. Spans nest through Parent (-1 for
// the root); spans of one request share Req (-1 when not request
// scoped). Start and End are nanoseconds since the tracer's epoch.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps every span in memory; WriteJSONL writes them out once
// the run is over, so recording costs two clock reads and an append.
type Tracer struct {
	epoch time.Time
	spans []Span
}

// NewTracer returns a tracer with room for capHint spans before it has
// to grow its buffer.
func NewTracer(capHint int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, capHint)}
}

// Now is the tracer clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent int32, req int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: t.Now()})
	return id
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int32) { t.spans[id].End = t.Now() }

// Record appends a span that was timed inline with Now, for calls
// whose duration is only known to matter after they return.
func (t *Tracer) Record(name string, parent int32, req int64, start, end int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// Spans returns the recorded spans in begin order (parents precede
// their children).
func (t *Tracer) Spans() []Span { return t.spans }

// WriteJSONL writes a header line, then one span per line.
func (t *Tracer) WriteJSONL(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// SelfTimes returns every span's self time: its duration minus the
// part of its interval that its children's spans cover (overlapping
// children are merged, and children are clipped to the parent).
func SelfTimes(spans []Span) []int64 {
	kids := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range kids[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, curA, curB := int64(0), int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// LayerTotals sums self time and span count per span name.
type LayerTotals struct {
	SelfNs map[string]int64
	DurNs  map[string]int64
	Count  map[string]int
}

// Ledger aggregates a span list per layer name.
func Ledger(spans []Span) LayerTotals {
	self := SelfTimes(spans)
	lt := LayerTotals{SelfNs: map[string]int64{}, DurNs: map[string]int64{}, Count: map[string]int{}}
	for i, s := range spans {
		lt.SelfNs[s.Name] += self[i]
		lt.DurNs[s.Name] += s.End - s.Start
		lt.Count[s.Name]++
	}
	return lt
}

// LedgerBound is the largest share of a traced phase's wall time that
// may go unattributed: time in no layer span, i.e. the self time of
// the phase span and of the benchmark's own grouping spans, spent in
// the benchmark's loop. Past it the layer numbers no longer explain
// the phase, and the traced run fails.
const LedgerBound = 0.05

// isGroup reports whether a span only groups others (the session, a
// phase, one request or observe batch) rather than timing a call into
// a layer of the program.
func isGroup(name string) bool {
	return name == "session" || name == "request" || name == "observe.batch" || isPhase(name)
}

// PhaseGap is one traced phase's reconciliation: its wall time, the sum
// of the self times of the layer spans below it, and the share of the
// wall time left unattributed.
type PhaseGap struct {
	Name         string  `json:"name"`
	WallNs       int64   `json:"wall_ns"`
	LayersNs     int64   `json:"layers_ns"`
	Unattributed float64 `json:"unattributed"`
}

// Reconcile checks, for every span whose name starts with "phase.",
// that the self times of the layer spans below it sum to its wall time
// within LedgerBound.
func Reconcile(spans []Span) ([]PhaseGap, error) {
	self := SelfTimes(spans)
	// phaseOf[i] is the phase span i sits under (-1 if none). Parents
	// precede children, so one forward pass resolves it.
	phaseOf := make([]int32, len(spans))
	for i, s := range spans {
		phaseOf[i] = -1
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if isPhase(p.Name) {
			phaseOf[i] = p.ID
		} else {
			phaseOf[i] = phaseOf[p.ID]
		}
	}
	sum := map[int32]int64{}
	for i := range spans {
		if ph := phaseOf[i]; ph >= 0 && !isGroup(spans[i].Name) {
			sum[ph] += self[i]
		}
	}
	var gaps []PhaseGap
	var err error
	for _, s := range spans {
		if !isPhase(s.Name) {
			continue
		}
		wall := s.End - s.Start
		g := PhaseGap{Name: s.Name, WallNs: wall, LayersNs: sum[s.ID]}
		if wall > 0 {
			g.Unattributed = float64(wall-g.LayersNs) / float64(wall)
		}
		if g.Unattributed > LedgerBound || g.Unattributed < 0 {
			err = fmt.Errorf("ledger: %s: layer self times sum to %.3f s of %.3f s wall (%.1f%% unattributed, bound %.0f%%)",
				s.Name, float64(g.LayersNs)/1e9, float64(wall)/1e9, 100*g.Unattributed, 100*LedgerBound)
		}
		gaps = append(gaps, g)
	}
	return gaps, err
}

func isPhase(name string) bool { return len(name) > 6 && name[:6] == "phase." }
