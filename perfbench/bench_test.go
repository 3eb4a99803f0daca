package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ceer"
	"ceer/internal/gpu"
	"ceer/internal/serve"
	"ceer/internal/serve/loadgen"
)

// trainedModel trains a small system once and returns its model file
// and observation log.
var (
	trainOnce            sync.Once
	trainedPath, obsPath string
	trainErr             error
)

func trainedModel(t *testing.T) (model string, obsLog []byte) {
	t.Helper()
	trainOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test")
		if err != nil {
			trainErr = err
			return
		}
		sys, err := ceer.Train(ceer.TrainOptions{Seed: 1, ProfileIterations: 20, CommIterations: 5})
		if err != nil {
			trainErr = err
			return
		}
		var m, l bytes.Buffer
		if err := sys.Save(&m); err != nil {
			trainErr = err
			return
		}
		if err := sys.WriteObsLog(&l); err != nil {
			trainErr = err
			return
		}
		trainedPath, obsPath = filepath.Join(dir, "model.json"), filepath.Join(dir, "obs.jsonl")
		if err := os.WriteFile(trainedPath, m.Bytes(), 0o644); err != nil {
			trainErr = err
			return
		}
		trainErr = os.WriteFile(obsPath, l.Bytes(), 0o644)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	log, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	return trainedPath, log
}

func TestMain(m *testing.M) {
	code := m.Run()
	if trainedPath != "" {
		_ = os.RemoveAll(filepath.Dir(trainedPath)) // temp dir; nothing to report
	}
	os.Exit(code)
}

func TestSeedGivesSameInputs(t *testing.T) {
	for _, off := range []bool{false, true} {
		a, b, c := ReadOps(7, 500, off), ReadOps(7, 500, off), ReadOps(8, 500, off)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("offBatch=%v: same seed gave different op streams", off)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("offBatch=%v: seeds 7 and 8 gave the same op stream", off)
		}
	}
	// Every off-batch read carries a batch the daemon did not compile.
	compiled := "&batch=32"
	for _, op := range ReadOps(7, 2000, true) {
		if !regexp.MustCompile(`&batch=(8|16|64|128)$`).MatchString(op.RawQuery) || bytes.Contains([]byte(op.RawQuery), []byte(compiled)) {
			t.Fatalf("off-batch op %q carries no off-batch size", op.RawQuery)
		}
	}
	// Off-batch op i is the compiled-batch op i plus its batch.
	on, off := ReadOps(7, 300, false), ReadOps(7, 300, true)
	for i := range on {
		if !bytes.HasPrefix([]byte(off[i].RawQuery), []byte(on[i].RawQuery+"&batch=")) || on[i].Path != off[i].Path {
			t.Fatalf("op %d: %q is not %q plus a batch", i, off[i].RawQuery, on[i].RawQuery)
		}
	}

	if !reflect.DeepEqual(DriftSchedule(7), DriftSchedule(7)) {
		t.Error("same seed gave different drift schedules")
	}
	if reflect.DeepEqual(DriftSchedule(7), DriftSchedule(8)) {
		t.Error("seeds 7 and 8 gave the same drift schedule")
	}
	// Every device drifts, and the onsets are the same set for any seed.
	var onsets []float64
	for _, st := range DriftSchedule(7) {
		if st.Onset < 0.1 || st.Onset > 0.6 || st.Factor < 1.2 || st.Factor > 1.4 {
			t.Errorf("drift step %+v outside its stated range", st)
		}
		onsets = append(onsets, st.Onset)
	}
	if len(onsets) != len(gpu.All()) {
		t.Errorf("%d of %d devices drift", len(onsets), len(gpu.All()))
	}
	var other []float64
	for _, st := range DriftSchedule(8) {
		other = append(other, st.Onset)
	}
	sort.Float64s(onsets)
	sort.Float64s(other)
	if !reflect.DeepEqual(onsets, other) {
		t.Errorf("onsets differ between seeds: %v vs %v", onsets, other)
	}

	_, log := trainedModel(t)
	a, err := ObsBodies(7, log, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ObsBodies(7, log, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ObsBodies(8, log, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different observation bodies")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same observation bodies")
	}
	if len(a) != 4 || bytes.Count(a[0], []byte("\n")) != obsBatchLines {
		t.Errorf("got %d bodies of %d lines, want 4 of %d", len(a), bytes.Count(a[0], []byte("\n")), obsBatchLines)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("invalid metric name %q", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: invalid unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("metric %s named twice", name)
		}
		seen[name] = true
	}
	var e2e, layers, wls []string
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit)
		layers = append(layers, m.Name)
	}
	for _, w := range bf.Workloads {
		check(w.Name, "count")
		wls = append(wls, w.Name)
	}
	var ours []string
	for _, w := range Workloads {
		ours = append(ours, w.Name)
	}
	same := func(what string, a, b []string) {
		a, b = append([]string(nil), a...), append([]string(nil), b...)
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: BENCHMARK.json lists %v, the benchmark %v", what, a, b)
		}
	}
	same("end-to-end metrics", e2e, EndToEndMetrics)
	same("per-layer metrics", layers, PerLayerMetrics)
	same("workloads", wls, ours)
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if v, err := Percentile(mk(1000), 0.99); err != nil || int(v) != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := Percentile(mk(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was accepted")
	}
	if _, err := Percentile(mk(20), 0.50); err != nil {
		t.Errorf("p50 of 20 samples (10 beyond): %v", err)
	}
	if _, err := Percentile(mk(19), 0.50); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was accepted")
	}
}

// flipper serves h's responses, flipping one byte in the body of the
// at-th response only.
type flipper struct {
	h  http.Handler
	at int
	n  atomic.Int64
}

func (f *flipper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if int(f.n.Add(1)) == f.at {
		body[len(body)/2] ^= 0x01
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body) // the client sees a short body if this fails
}

// TestChecksCatchCorruption feeds each correctness check a real output
// and the same output with one byte flipped.
func TestChecksCatchCorruption(t *testing.T) {
	model, log := trainedModel(t)
	sys, err := ceer.LoadFile(model)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("response", func(t *testing.T) {
		reqs := loadgen.Prepare(ReadOps(3, 40, false))
		for _, corrupt := range []bool{false, true} {
			srv, err := serve.New(sys, serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var h http.Handler = srv
			if corrupt {
				h = &flipper{h: srv, at: 17}
			}
			ts := httptest.NewServer(h)
			target := &loadgen.HTTPTarget{Base: ts.URL, Client: ts.Client()}
			rl := readLoop(target, reqs)
			ts.Close()
			r := &run{metrics: map[string]Metric{}}
			tl := r.phase("read")
			if err := r.checkReads(tl, rl, reqs, model); err != nil {
				t.Fatal(err)
			}
			if got := tl.Failed == 1 && len(r.errs) == 1; got != corrupt {
				t.Errorf("corrupt=%v: check failed=%v (%d of %d reads failed)", corrupt, got, tl.Failed, tl.Sent)
			}
		}
	})

	t.Run("calibrated-model", func(t *testing.T) {
		bodies, err := ObsBodies(5, log, 4)
		if err != nil {
			t.Fatal(err)
		}
		good, err := replayCalibration(model, bodies)
		if err != nil {
			t.Fatal(err)
		}
		for _, corrupt := range []bool{false, true} {
			b := append([]byte(nil), good...)
			if corrupt {
				b[len(b)/2] ^= 0x01
			}
			out := filepath.Join(t.TempDir(), "calib.json")
			if err := os.WriteFile(out, b, 0o644); err != nil {
				t.Fatal(err)
			}
			r := &run{metrics: map[string]Metric{}}
			r.checkCalibration(model, out, bodies, observeResult{ok: []bool{true, true, true, true}})
			if got := len(r.errs) > 0; got != corrupt {
				t.Errorf("corrupt=%v: check failed=%v", corrupt, got)
			}
		}
	})

	t.Run("trained-model", func(t *testing.T) {
		good, err := os.ReadFile(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, corrupt := range []bool{false, true} {
			b := append([]byte(nil), good...)
			if corrupt {
				b[len(b)/2] ^= 0x01
			}
			r := &run{metrics: map[string]Metric{}}
			r.checkRepeat("round 1: model file", b, good)
			if got := len(r.errs) > 0; got != corrupt {
				t.Errorf("corrupt=%v: check failed=%v", corrupt, got)
			}
		}
	})
}

func TestSelfTimesAndReconcile(t *testing.T) {
	overlap := []Span{
		{ID: 0, Parent: -1, Name: "x", Start: 0, End: 60},
		{ID: 1, Parent: 0, Name: "y", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "y", Start: 20, End: 40}, // overlaps its sibling
		{ID: 3, Parent: 0, Name: "y", Start: 50, End: 70}, // runs past its parent
	}
	if got, want := SelfTimes(overlap), []int64{20, 20, 20, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	spans := []Span{
		{ID: 0, Parent: -1, Name: "session", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "phase.a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "x", Start: 0, End: 60},
		{ID: 3, Parent: 2, Name: "y", Start: 10, End: 30},
		{ID: 4, Parent: 1, Name: "z", Start: 60, End: 98},
	}
	gaps, err := Reconcile(spans)
	if err != nil || len(gaps) != 1 || gaps[0].LayersNs != 98 {
		t.Errorf("reconcile: %+v, %v", gaps, err)
	}
	spans[4].End = 80 // leaves 20% of the phase unattributed
	if _, err := Reconcile(spans); err == nil {
		t.Error("a phase with 20% unattributed time reconciled")
	}
	if lt := Ledger(spans); lt.SelfNs["x"] != 40 || lt.Count["y"] != 1 {
		t.Errorf("ledger: %+v", lt)
	}
}
