package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"testing"

	"ceer"
)

// offBatchTol is the relative tolerance of the zoo-wide tables against
// the System's one-graph path (the equivalence suites' bound).
const offBatchTol = 1e-9

func relClose(got, want float64) bool {
	return math.Abs(got-want) <= offBatchTol*math.Max(math.Abs(got), math.Abs(want))
}

// checkAgainstFolded reports every field of a served prediction that
// departs from the folded oracle's.
func checkAgainstFolded(t *testing.T, where string, got PredictionJSON, want ceer.Prediction) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d, folded %d", where, got.Iterations, want.Iterations)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"hourly_usd", got.HourlyUSD, want.HourlyUSD},
		{"heavy_s", got.HeavyS, want.Iter.HeavySeconds},
		{"light_s", got.LightS, want.Iter.LightSeconds},
		{"cpu_s", got.CPUS, want.Iter.CPUSeconds},
		{"comm_s", got.CommS, want.Iter.CommSeconds},
		{"iter_s", got.IterS, want.Iter.PerIterSeconds},
		{"total_s", got.TotalS, want.TotalSeconds},
		{"cost_usd", got.CostUSD, want.CostUSD},
	} {
		if !relClose(f.got, f.want) {
			t.Errorf("%s: %s %v, folded %v", where, f.name, f.got, f.want)
		}
	}
	var unseen []string
	for _, u := range want.Iter.UnseenHeavy {
		unseen = append(unseen, string(u))
	}
	if !slices.Equal(got.UnseenHeavy, unseen) {
		t.Errorf("%s: unseen_heavy %v, folded %v", where, got.UnseenHeavy, unseen)
	}
}

func getBody(t *testing.T, s *Server, path, rawQuery string) []byte {
	t.Helper()
	status, body := s.DoLocal(http.MethodGet, path, rawQuery)
	if status != http.StatusOK {
		t.Fatalf("GET %s?%s: status %d: %s", path, rawQuery, status, body)
	}
	return body
}

// TestOffBatchMatchesCompiledServer pins the off-batch contract: every
// predict, recommend and explain body at a batch other than the
// compiled one equals, byte for byte, the body of a server compiled at
// that batch (the `ceer predict -json -batch B` path), and predictions
// agree with the System's one-graph path within 1e-9 relative, with
// the same best configuration, feasibility and unseen heavy types.
func TestOffBatchMatchesCompiledServer(t *testing.T) {
	sys := testSystem(t)
	s := newTestServer(t, Options{})
	ds := ceer.NewDataset("request", ceer.ImageNet.Samples)
	cands := ceer.AllConfigs(4)
	for _, batch := range []int64{8, 16, 64, 128} {
		ref := newTestServer(t, Options{Batch: batch})
		for _, model := range ceer.Models() {
			pq := fmt.Sprintf("model=%s&batch=%d", model, batch)
			rq := pq + "&objective=cost"
			pbody := getBody(t, s, "/v1/predict", pq)
			if want := getBody(t, ref, "/v1/predict", pq); !bytes.Equal(pbody, want) {
				t.Errorf("predict %s: off-batch body diverges from a server compiled at %d\n got: %s\nwant: %s", pq, batch, pbody, want)
			}
			rbody := getBody(t, s, "/v1/recommend", rq)
			if want := getBody(t, ref, "/v1/recommend", rq); !bytes.Equal(rbody, want) {
				t.Errorf("recommend %s: off-batch body diverges from a server compiled at %d\n got: %s\nwant: %s", rq, batch, rbody, want)
			}
			eq := pq + "&gpu=v100&k=2"
			ebody := getBody(t, s, "/v1/explain", eq)
			if want := getBody(t, ref, "/v1/explain", eq); !bytes.Equal(ebody, want) {
				t.Errorf("explain %s: off-batch body diverges from a server compiled at %d\n got: %s\nwant: %s", eq, batch, ebody, want)
			}

			g, err := ceer.BuildModel(model, batch)
			if err != nil {
				t.Fatal(err)
			}
			var pr PredictResponse
			if err := json.Unmarshal(pbody, &pr); err != nil {
				t.Fatal(err)
			}
			if pr.Batch != batch || len(pr.Predictions) != len(cands) {
				t.Fatalf("predict %s: batch %d with %d predictions", pq, pr.Batch, len(pr.Predictions))
			}
			for i, cfg := range cands {
				want, err := sys.PredictTraining(g, cfg, ds, ceer.OnDemand)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstFolded(t, "predict "+pq+" "+cfg.String(), pr.Predictions[i], want)
			}

			var rr RecommendResponse
			if err := json.Unmarshal(rbody, &rr); err != nil {
				t.Fatal(err)
			}
			rec, err := sys.Recommend(g, ds, ceer.OnDemand, cands, ceer.MinimizeCost)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Best.Config != rec.Best.Cfg.String() {
				t.Errorf("recommend %s: best %s, folded %s", rq, rr.Best.Config, rec.Best.Cfg)
			}
			if len(rr.Candidates) != len(rec.Candidates) {
				t.Fatalf("recommend %s: %d candidates, folded %d", rq, len(rr.Candidates), len(rec.Candidates))
			}
			for i := range rec.Candidates {
				c, w := rr.Candidates[i], &rec.Candidates[i]
				where := "recommend " + rq + " " + w.Cfg.String()
				if c.Feasible != w.Feasible {
					t.Errorf("%s: feasible %v, folded %v", where, c.Feasible, w.Feasible)
				}
				checkAgainstFolded(t, where, c.PredictionJSON, w.Prediction)
			}
		}
	}
}

// TestOffBatchFollowsCalibrationSwap: once a calibration refit is
// installed, off-batch reads answer from the calibrated predictor —
// byte-identical to a server compiled at that batch over it — and the
// entry's pre-calibration tables are replaced while its graph is kept.
func TestOffBatchFollowsCalibrationSwap(t *testing.T) {
	s := newTestServer(t, Options{
		ReloadTolerance: 1e9,
		Calibration:     &CalibrationOptions{Policy: ceer.CalibrationPolicy{RefitEvery: 64}},
	})
	const q = "model=resnet-50&batch=64"
	before := getBody(t, s, "/v1/predict", q) // compiles the pre-calibration entry
	mi := s.findModel("resnet-50")
	g := findOff(s.offBatch.Load(), 64, mi).g
	postObserve(t, s, obsBody(testObsLines(t, 2000)), http.StatusOK)
	if s.met.srv.calibSwaps.Load() == 0 {
		t.Fatal("no calibration swap installed under an accept-everything tolerance")
	}

	var buf bytes.Buffer
	if err := s.Box().Load().Predictor().Save(&buf); err != nil {
		t.Fatal(err)
	}
	calibrated, err := ceer.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(calibrated, Options{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	got := getBody(t, s, "/v1/predict", q)
	if want := getBody(t, ref, "/v1/predict", q); !bytes.Equal(got, want) {
		t.Errorf("batch=64 after calibration diverges from a server compiled over the calibrated predictor\n got: %s\nwant: %s", got, want)
	}
	if bytes.Equal(got, before) {
		t.Fatal("calibration left the batch=64 body unchanged; the test cannot tell stale tables from fresh")
	}
	e := findOff(s.offBatch.Load(), 64, mi)
	if e.comp.Predictor() != s.Box().Load().Predictor() {
		t.Error("the batch-64 entry still holds the pre-swap predictor")
	}
	if e.g != g {
		t.Error("the swap rebuilt the batch-64 graph; only its tables depend on the predictor")
	}
}

// TestOffBatchSprayIsCapped: a client naming 100 distinct batch sizes
// gets a correct 200 for every one, while the server keeps tables for
// at most offBatchCap of them — the most recently compiled, as none was
// read twice.
func TestOffBatchSprayIsCapped(t *testing.T) {
	sys := testSystem(t)
	s := newTestServer(t, Options{})
	cfg, err := ceer.Config("P3", 2)
	if err != nil {
		t.Fatal(err)
	}
	ds := ceer.NewDataset("request", ceer.ImageNet.Samples)
	var batches []int64
	for b := int64(1); len(batches) < 100; b++ {
		if b != s.batch {
			batches = append(batches, b)
		}
	}
	for _, b := range batches {
		q := fmt.Sprintf("model=alexnet&config=2xP3&batch=%d", b)
		var pr PredictResponse
		if err := json.Unmarshal(getBody(t, s, "/v1/predict", q), &pr); err != nil {
			t.Fatal(err)
		}
		g, err := ceer.BuildModel("alexnet", b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.PredictTraining(g, cfg, ds, ceer.OnDemand)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFolded(t, q, pr.Predictions[0], want)
		if n := len(*s.offBatch.Load()); n > offBatchCap {
			t.Fatalf("after batch=%d the server holds %d off-batch tables, cap %d", b, n, offBatchCap)
		}
	}
	var held []int64
	for _, e := range *s.offBatch.Load() {
		held = append(held, e.batch)
	}
	want := slices.Clone(batches[len(batches)-offBatchCap:])
	slices.Reverse(want)
	if !slices.Equal(held, want) {
		t.Errorf("held batches %v, want the newest %v", held, want)
	}
}

// TestOffBatchReadEntrySurvivesEviction: an entry read between
// compiles is kept ahead of entries nobody read, so a hot pair outlives
// a stream of one-off batch sizes longer than the cap and is never
// recompiled.
func TestOffBatchReadEntrySurvivesEviction(t *testing.T) {
	s := newTestServer(t, Options{})
	const hot = "model=resnet-50&config=2xP3&batch=64"
	want := getBody(t, s, "/v1/predict", hot)
	mi := s.findModel("resnet-50")
	e := findOff(s.offBatch.Load(), 64, mi)
	if e == nil {
		t.Fatal("no entry for resnet-50 at batch 64 after its first request")
	}
	for b := int64(1000); b < 1000+3*offBatchCap; b++ {
		getBody(t, s, "/v1/predict", fmt.Sprintf("model=alexnet&config=2xP3&batch=%d", b))
		if got := getBody(t, s, "/v1/predict", hot); !bytes.Equal(got, want) {
			t.Fatalf("after one-off batch %d the hot body changed", b)
		}
		if findOff(s.offBatch.Load(), 64, mi) != e {
			t.Fatalf("after one-off batch %d the hot entry was evicted or recompiled", b)
		}
		if n := len(*s.offBatch.Load()); n > offBatchCap {
			t.Fatalf("%d off-batch entries held, cap %d", n, offBatchCap)
		}
	}
}

// TestOffBatchConcurrentSwaps runs off-batch readers, several sharing a
// batch, against hot swaps between two generations with identical
// tables (a save/load round trip): every read must return the
// reference body whichever generation compiled its tables, and -race
// checks the copy-on-write publish against the lock-free lookup.
func TestOffBatchConcurrentSwaps(t *testing.T) {
	sys := testSystem(t)
	s := newTestServer(t, Options{})
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sys2, err := ceer.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	comp2, err := sys2.Compiled(32)
	if err != nil {
		t.Fatal(err)
	}
	comp1 := s.box.Load()

	queries := []struct{ path, q string }{
		{"/v1/predict", "model=resnet-50&config=2xP3&batch=64"},
		{"/v1/recommend", "model=alexnet&objective=time&batch=16"},
	}
	want := make([][]byte, len(queries))
	for i, qq := range queries {
		want[i] = getBody(t, s, qq.path, qq.q)
	}

	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for i := 0; i < 3; i++ {
			s.Install(comp2)
			s.Install(comp1)
		}
	}()
	const readers, rounds = 4, 20
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				i := (r + n) % len(queries)
				status, body := s.DoLocal(http.MethodGet, queries[i].path, queries[i].q)
				if status != http.StatusOK || !bytes.Equal(body, want[i]) {
					t.Errorf("reader %d round %d: status %d, body diverged under hot swap", r, n, status)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	<-swapperDone
	if n := len(*s.offBatch.Load()); n > offBatchCap {
		t.Errorf("%d off-batch tables held, cap %d", n, offBatchCap)
	}
}
