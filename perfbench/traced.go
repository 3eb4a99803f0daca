package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ceer"
	core "ceer/internal/ceer"
	"ceer/internal/cloud"
	"ceer/internal/dataset"
	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/serve"
	"ceer/internal/serve/loadgen"
	"ceer/internal/sim"
	"ceer/internal/trace"
	"ceer/internal/zoo"
)

const (
	// replayOps is how many ops of the read stream the traced run
	// replays in-process, per pass; loopbackOps is how many of them it
	// also sends over loopback.
	replayOps   = 3000
	loopbackOps = 2000
	// overheadReps is how many traced and untraced handler-only passes
	// the tracing overhead is taken from.
	overheadReps = 3
	// compiledBatch is the daemon's default serving batch.
	compiledBatch = 32
)

// traced replays the workload's session in-process, recording a span
// around every call this package makes into a module of the program,
// and reports the per-layer metrics. Spans are written to spanPath.
func (r *run) traced(stamp Stamp, spanPath string) error {
	ctx := context.Background()
	modelPath := filepath.Join(r.dir, "model.json")
	obsLogPath := filepath.Join(r.dir, "obs.jsonl")

	// The binary's own train at this seed: the reference the in-process
	// serial train must reproduce byte for byte. Untraced.
	tp := r.phase("train")
	_, err := runTrain(r.bin, modelPath, obsLogPath, r.seed)
	tp.add(err == nil)
	if err != nil {
		return err
	}
	binModel, err := os.ReadFile(modelPath)
	if err != nil {
		return err
	}
	obsLog, err := os.ReadFile(obsLogPath)
	if err != nil {
		return err
	}
	bodies, err := ObsBodies(r.seed, obsLog, obsBodiesPerRound)
	if err != nil {
		return err
	}
	reqs := loadgen.Prepare(ReadOps(r.seed, replayOps, r.w.OffBatch))

	tr := NewTracer(1 << 17)
	root := tr.Begin("session", -1, -1)

	// Train: the campaign, serially, one call per cell.
	saved, err := r.traceTrain(ctx, tr, root)
	if err != nil {
		return err
	}
	tp.add(bytes.Equal(saved, binModel))
	if !bytes.Equal(saved, binModel) {
		r.fail("in-process serial train (%d bytes) differs from `ceer train` at the same seed (%d bytes)", len(saved), len(binModel))
	}

	// Boot: load, compile, construct the server.
	sys, comp, srv, err := r.traceBoot(tr, root, modelPath)
	if err != nil {
		return err
	}

	// Read: the request stream through the handler, with each request's
	// predictor and pricing work replayed beside it for attribution.
	want, handlerNs, err := r.traceReads(tr, root, sys, comp, srv, reqs)
	if err != nil {
		return err
	}

	// Loopback: the same ops over a real socket to the same server.
	if err := r.traceLoopback(tr, root, srv, reqs, want, handlerNs); err != nil {
		return err
	}

	// Observe: the seed's observation stream through POST /v1/observe,
	// with decode and calibration replayed beside it.
	if err := r.traceObserve(tr, root, modelPath, bodies); err != nil {
		return err
	}
	tr.End(root)

	gaps, lerr := Reconcile(tr.Spans())
	worst := 0.0
	for _, g := range gaps {
		worst = max(worst, 100*g.Unattributed)
	}
	r.set("ledger.unattributed_pct", "%", worst)
	if lerr != nil {
		r.fail("%v", lerr)
	}
	lt := Ledger(tr.Spans())
	r.layerMetrics(lt, len(reqs))
	header := map[string]any{"host": stamp, "workload": r.w.Name, "seed": r.seed, "phases": gaps, "self_ns": lt.SelfNs}
	if err := tr.WriteJSONL(spanPath, header); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.Spans()), spanPath)
	return nil
}

// traceTrain runs the measurement campaign of `ceer train` serially —
// build, profile every (CNN, device), measure every comm cell, fit,
// save — and returns the saved model bytes.
func (r *run) traceTrain(ctx context.Context, tr *Tracer, root int32) ([]byte, error) {
	pl := core.DefaultPipeline(r.seed)
	ph := tr.Begin("phase.train", root, -1)
	names := ceer.TrainingModels()
	graphs := make([]*graph.Graph, len(names))
	for i, n := range names {
		s := tr.Begin("zoo.build", ph, -1)
		g, err := zoo.Build(n, pl.Batch)
		tr.End(s)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	prof := &sim.Profiler{Seed: pl.Seed, Iterations: pl.ProfileIterations, Retain: pl.Retain, Workers: 1}
	bundle := &trace.Bundle{}
	samples := 0
	for i := range names {
		for _, m := range gpu.All() {
			s := tr.Begin("sim.profile", ph, -1)
			p, err := prof.Profile(ctx, graphs[i], m)
			tr.End(s)
			if err != nil {
				return nil, err
			}
			bundle.Add(p)
			samples += p.Iterations * len(p.Series)
		}
	}
	var comm []core.CommObs
	for i, n := range names {
		for _, m := range gpu.All() {
			for k := 1; k <= pl.MaxK; k++ {
				s := tr.Begin("sim.comm", ph, -1)
				meas, err := sim.Train(ctx, graphs[i], cloud.Config{GPU: m, K: k}, dataset.ImageNetSubset6400, pl.CommIterations, pl.Seed+7)
				tr.End(s)
				if err != nil {
					return nil, err
				}
				comm = append(comm, core.CommObs{CNN: n, GPU: m, K: k, Params: graphs[i].Params, Overhead: meas.PerIterSeconds - meas.ComputeSeconds})
			}
		}
	}
	s := tr.Begin("ceer.fit", ph, -1)
	pred, err := core.Train(bundle, comm)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	s = tr.Begin("ceer.save", ph, -1)
	err = pred.Save(&buf)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	tr.End(ph)
	r.set("sim.samples", "count", float64(samples))
	r.set("ceer.op_models", "count", float64(len(pred.OpModels())))
	r.set("persist.bytes", "B", float64(buf.Len()))
	return buf.Bytes(), nil
}

// traceBoot is what `ceer serve -models F -warmup` does before it
// listens: load the file, build the zoo, compile the tables, construct
// and warm the server. The global fold is also timed alone, on the
// graphs the compile just folded.
func (r *run) traceBoot(tr *Tracer, root int32, modelPath string) (*ceer.System, *ceer.CompiledSystem, *serve.Server, error) {
	ph := tr.Begin("phase.boot", root, -1)
	s := tr.Begin("ceer.load", ph, -1)
	sys, err := ceer.LoadFile(modelPath)
	tr.End(s)
	if err != nil {
		return nil, nil, nil, err
	}
	var graphs []*graph.Graph
	for _, n := range ceer.Models() {
		s := tr.Begin("zoo.cached_build", ph, -1)
		g, err := ceer.BuildModelCached(n, compiledBatch)
		tr.End(s)
		if err != nil {
			return nil, nil, nil, err
		}
		graphs = append(graphs, g)
	}
	s = tr.Begin("ceer.compile", ph, -1)
	comp, err := sys.Compiled(compiledBatch)
	tr.End(s)
	if err != nil {
		return nil, nil, nil, err
	}
	s = tr.Begin("graph.globalfold", ph, -1)
	gf := graph.FoldAll(graphs)
	tr.End(s)
	s = tr.Begin("serve.new", ph, -1)
	srv, err := serve.New(sys, serve.Options{Warmup: true})
	tr.End(s)
	if err != nil {
		return nil, nil, nil, err
	}
	tr.End(ph)
	st := comp.Stats()
	r.set("graph.nodes", "count", float64(gf.Nodes()))
	r.set("ceer.compile_evals", "count", float64(st.BuildEvals))
	r.set("ceer.table_kb", "kB", float64(st.TableBytes)/1024)
	return sys, comp, srv, nil
}

// readQuery is the part of a read the predictor replay needs.
type readQuery struct {
	model, config string
	recommend     bool
	timeObjective bool
	market        bool
	batch         int64
}

func parseRead(req *http.Request) (readQuery, error) {
	v, err := url.ParseQuery(req.URL.RawQuery)
	if err != nil {
		return readQuery{}, err
	}
	q := readQuery{
		model:         v.Get("model"),
		config:        v.Get("config"),
		recommend:     req.URL.Path == "/v1/recommend",
		timeObjective: v.Get("objective") == "time",
		market:        v.Get("pricing") == "market",
		batch:         compiledBatch,
	}
	if b := v.Get("batch"); b != "" {
		if q.batch, err = strconv.ParseInt(b, 10, 64); err != nil {
			return readQuery{}, err
		}
	}
	return q, nil
}

// traceReads replays the read stream through the server's handler,
// every pass over the same ops:
//
//   - cold (traced, handler only): the first pass pays the folded
//     predictor's memo fills, and its ModelEvaluations delta is
//     ceer.folded_evals_per_req;
//   - attribution (traced): per request, the handler call, then the
//     predictor call the handler makes for it (compiled tables at the
//     compiled batch, the folded System otherwise) and the pricing
//     lookups, each its own span;
//   - overheadReps pairs of handler-only passes, one traced and one
//     untraced, alternating; the fastest of each side gives the
//     tracing overhead, and the untraced ones the allocations per
//     request. Untraced passes sit outside every phase span.
//
// It returns each op's in-process outcome and the fastest untraced
// handler time per request in ns.
func (r *run) traceReads(tr *Tracer, root int32, sys *ceer.System, comp *ceer.CompiledSystem,
	srv *serve.Server, reqs []*http.Request) ([]loadgen.Outcome, float64, error) {
	// The arguments of each request's predictor call, prepared before
	// the phase so that only calls into the program sit inside it.
	type call struct {
		q       readQuery
		g       *ceer.Graph
		cands   []ceer.InstanceConfig
		pricing ceer.Pricing
		obj     ceer.Objective
	}
	all := ceer.AllConfigs(4)
	calls := make([]call, len(reqs))
	for i, req := range reqs {
		q, err := parseRead(req)
		if err != nil {
			return nil, 0, err
		}
		c := call{q: q, cands: all, pricing: ceer.OnDemand, obj: ceer.MinimizeCost}
		if q.config != "" {
			c.cands = nil
			for _, cfg := range all {
				if cfg.String() == q.config {
					c.cands = []ceer.InstanceConfig{cfg}
				}
			}
		}
		if q.market {
			c.pricing = ceer.MarketRatio
		}
		if q.timeObjective {
			c.obj = ceer.MinimizeTime
		}
		calls[i] = c
	}

	ph := tr.Begin("phase.read", root, -1)
	type key struct {
		model string
		batch int64
	}
	seen := map[key]bool{}
	for i := range calls {
		// The first touch of each off-batch graph builds it; the zoo
		// graphs at the compiled batch were built at boot.
		q := calls[i].q
		k := key{q.model, q.batch}
		first := q.batch != compiledBatch && !seen[k]
		seen[k] = true
		var s int32
		if first {
			s = tr.Begin("zoo.cached_build", ph, -1)
		}
		g, err := ceer.BuildModelCached(q.model, q.batch)
		if first {
			tr.End(s)
		}
		if err != nil {
			return nil, 0, err
		}
		calls[i].g = g
	}

	ht := loadgen.NewHandlerTarget(srv)
	outs := make([]loadgen.Outcome, len(reqs))
	handlerPass := func(parent int32) time.Duration {
		t0 := time.Now()
		for i, req := range reqs {
			if parent < 0 {
				ht.Do(i, req)
				continue
			}
			rq := tr.Begin("request", parent, int64(i))
			s := tr.Begin("serve.handler", rq, int64(i))
			outs[i] = ht.Do(i, req)
			tr.End(s)
			tr.End(rq)
		}
		return time.Since(t0)
	}
	e0 := sys.Predictor().ModelEvaluations()
	handlerPass(ph)
	evals := sys.Predictor().ModelEvaluations() - e0

	ds := ceer.Dataset{Name: "request", Samples: ceer.ImageNet.Samples}
	var rec ceer.Recommendation
	var handlerNs, predictNs, pricingNs int64
	pricingCalls := 0
	dur := func(s int32) int64 { return tr.Spans()[s].End - tr.Spans()[s].Start }
	for i, req := range reqs {
		c := &calls[i]
		var err error
		rq := tr.Begin("request", ph, int64(i))
		s := tr.Begin("serve.handler", rq, int64(i))
		ht.Do(i, req)
		tr.End(s)
		handlerNs += dur(s)

		if c.q.batch == compiledBatch {
			s = tr.Begin("ceer.compiled_predict", rq, int64(i))
			if c.q.recommend {
				err = comp.RecommendInto(&rec, c.g, ds, c.pricing, c.cands, c.obj)
			} else {
				for _, cfg := range c.cands {
					if _, err = comp.PredictTraining(c.g, cfg, ds, c.pricing); err != nil {
						break
					}
				}
			}
		} else {
			s = tr.Begin("ceer.folded_predict", rq, int64(i))
			if c.q.recommend {
				_, err = sys.Recommend(c.g, ds, c.pricing, c.cands, c.obj)
			} else {
				for _, cfg := range c.cands {
					if _, err = sys.PredictTraining(c.g, cfg, ds, c.pricing); err != nil {
						break
					}
				}
			}
		}
		tr.End(s)
		predictNs += dur(s)
		if err != nil {
			return nil, 0, fmt.Errorf("predictor replay of %s?%s: %w", req.URL.Path, req.URL.RawQuery, err)
		}
		s = tr.Begin("cloud.hourly_cost", rq, int64(i))
		for _, cfg := range c.cands {
			if _, err = ceer.HourlyCost(cfg, c.pricing); err != nil {
				break
			}
		}
		tr.End(s)
		pricingCalls += len(c.cands)
		pricingNs += dur(s)
		tr.End(rq)
		if err != nil {
			return nil, 0, err
		}
	}
	tr.End(ph)

	traced, untraced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var allocs, allocBytes, gcs uint64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < overheadReps; rep++ {
		p := tr.Begin("phase.replay", root, -1)
		traced = min(traced, handlerPass(p))
		tr.End(p)
		runtime.ReadMemStats(&m0)
		untraced = min(untraced, handlerPass(-1))
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)
	}

	n := float64(len(reqs))
	respBytes := 0
	rt := r.phase("replay")
	for _, o := range outs {
		rt.add(o.Status == http.StatusOK)
		respBytes += o.BodyLen
	}
	passes := n * overheadReps
	r.set("serve.handler_us", "us", float64(handlerNs)/n/1e3)
	r.set("serve.self_us", "us", float64(handlerNs-predictNs)/n/1e3)
	r.set("serve.resp_bytes", "B", float64(respBytes)/n)
	r.set("serve.allocs_per_req", "count", float64(allocs)/passes)
	r.set("serve.bytes_per_req", "B", float64(allocBytes)/passes)
	r.set("runtime.gc_per_1k_req", "count", float64(gcs)*1000/passes)
	r.set("ceer.folded_evals_per_req", "count", float64(evals)/n)
	r.set("trace.overhead_pct", "%", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds())
	r.set("cloud.hourly_cost_ns", "ns", float64(pricingNs)/float64(max(pricingCalls, 1)))
	return outs, float64(untraced.Nanoseconds()) / n, nil
}

// traceLoopback serves the first loopbackOps ops over a loopback socket
// from the same server, checking each answer against the in-process
// outcome of the same op. Transport time is the loopback latency less
// the untraced in-process handler time.
func (r *run) traceLoopback(tr *Tracer, root int32, srv *serve.Server, reqs []*http.Request, want []loadgen.Outcome, handlerNs float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := newClient()
	target := &loadgen.HTTPTarget{Base: "http://" + ln.Addr().String(), Client: client}
	lt := r.phase("loopback")
	n := min(loopbackOps, len(reqs))
	ph := tr.Begin("phase.loopback", root, -1)
	var total int64
	for i := 0; i < n; i++ {
		s := tr.Begin("http.request", ph, int64(i))
		o := target.Do(i, reqs[i])
		tr.End(s)
		total += tr.Spans()[s].End - tr.Spans()[s].Start
		ok := o.Status == http.StatusOK && o == want[i]
		lt.add(ok)
		if !ok && lt.Failed == 1 {
			r.fail("loopback %s?%s: %+v, in-process %+v", reqs[i].URL.Path, reqs[i].URL.RawQuery, o, want[i])
		}
	}
	tr.End(ph)
	client.CloseIdleConnections()
	sctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	r.set("http.transport_us", "us", (float64(total)/float64(n)-handlerNs)/1e3)
	return nil
}

// traceObserve posts the observation bodies to an in-process daemon
// with a write-ahead journal (flushed per observation, not fsynced, as
// in the end-to-end run), and replays beside each POST the decode and
// calibration work it implies on a separate Calibrator bound to a box,
// as the daemon's is. The daemon's calibrated predictor must equal the
// replay's byte for byte.
func (r *run) traceObserve(tr *Tracer, root int32, modelPath string, bodies [][]byte) error {
	dsys, err := ceer.LoadFile(modelPath)
	if err != nil {
		return err
	}
	srv, err := serve.New(dsys, serve.Options{Calibration: &serve.CalibrationOptions{
		JournalPath: filepath.Join(r.dir, "journal.jsonl"), Fsync: serve.FsyncNever}})
	if err != nil {
		return err
	}
	csys, err := ceer.LoadFile(modelPath)
	if err != nil {
		return err
	}
	cal, err := csys.NewCalibrator(ceer.DefaultCalibrationPolicy())
	if err != nil {
		return err
	}
	var graphs []*graph.Graph
	for _, n := range ceer.Models() {
		g, err := ceer.BuildModelCached(n, compiledBatch)
		if err != nil {
			return err
		}
		graphs = append(graphs, g)
	}
	var box ceer.CompiledBox
	if err := cal.BindBox(&box, graphs); err != nil {
		return err
	}

	ot := r.phase("observe")
	gen0 := srv.Generation()
	ph := tr.Begin("phase.observe", root, -1)
	nObs, refits := 0, 0
	var calibNs, refitNs, decodeNs int64
	for bi, body := range bodies {
		req := int64(bi)
		rq := tr.Begin("observe.batch", ph, req)
		s := tr.Begin("serve.observe", rq, req)
		status, resp := srv.DoLocalBody(http.MethodPost, "/v1/observe", "", body)
		tr.End(s)
		var or serve.ObserveResponse
		ok := status == http.StatusOK && json.Unmarshal(resp, &or) == nil && or.Accepted == bytes.Count(body, []byte("\n"))
		ot.add(ok)
		if !ok && ot.Failed == 1 {
			r.fail("observe body %d: status %d: %s", bi, status, bytes.TrimSpace(resp))
		}

		s = tr.Begin("trace.decode", rq, req)
		var obs []trace.Obs
		rd := trace.NewObsReader(bytes.NewReader(body))
		for {
			o, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("decoding observe body %d: %w", bi, err)
			}
			obs = append(obs, o)
		}
		tr.End(s)
		decodeNs += tr.Spans()[s].End - tr.Spans()[s].Start
		nObs += len(obs)

		c := tr.Begin("ceer.calibrate", rq, req)
		for _, o := range obs {
			before := cal.Predictor()
			t0 := tr.Now()
			err := cal.Calibrate(o)
			t1 := tr.Now()
			if err != nil {
				return fmt.Errorf("calibrating: %w", err)
			}
			if cal.Predictor() != before {
				tr.Record("ceer.refit", c, req, t0, t1)
				refits++
				refitNs += t1 - t0
			} else {
				calibNs += t1 - t0
			}
		}
		tr.End(c)
		tr.End(rq)
	}
	tr.End(ph)

	var got, want bytes.Buffer
	if err := srv.SaveCalibrated(&got); err != nil {
		return err
	}
	if err := cal.Predictor().Save(&want); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		r.fail("daemon's calibrated predictor (%d bytes) differs from the offline calibrator's (%d bytes)", got.Len(), want.Len())
	}
	r.set("serve.swaps", "count", float64(srv.Generation()-gen0))
	sctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	r.set("trace.decode_us_per_obs", "us", float64(decodeNs)/float64(max(nObs, 1))/1e3)
	r.set("ceer.refits", "count", float64(refits))
	r.set("ceer.calibrate_us_per_obs", "us", float64(calibNs)/float64(max(nObs-refits, 1))/1e3)
	r.set("ceer.refit_ms", "ms", float64(refitNs)/float64(max(refits, 1))/1e6)
	return nil
}

// layerMetrics derives the remaining per-layer metrics from the span
// ledger.
func (r *run) layerMetrics(lt LayerTotals, nReqs int) {
	ms := func(name string) float64 { return float64(lt.DurNs[name]) / 1e6 }
	per := func(name string, n int, unit float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(lt.DurNs[name]) / float64(n) / unit
	}
	r.set("zoo.build_ms", "ms", ms("zoo.build"))
	r.set("graph.globalfold_ms", "ms", ms("graph.globalfold"))
	r.set("sim.profile_s", "s", ms("sim.profile")/1e3)
	r.set("sim.comm_s", "s", ms("sim.comm")/1e3)
	r.set("sim.ns_per_sample", "ns", float64(lt.DurNs["sim.profile"])/r.metrics["sim.samples"].Value)
	r.set("ceer.fit_ms", "ms", ms("ceer.fit"))
	r.set("ceer.save_ms", "ms", ms("ceer.save"))
	r.set("ceer.load_ms", "ms", ms("ceer.load"))
	r.set("ceer.compile_ms", "ms", ms("ceer.compile"))
	r.set("serve.new_ms", "ms", ms("serve.new"))
	r.set("zoo.cached_build_ms", "ms", per("zoo.cached_build", lt.Count["zoo.cached_build"], 1e6))
	// Per request of the attribution pass, the only one that replays
	// the predictor: a path the workload never takes reads 0.
	r.set("ceer.compiled_predict_us", "us", per("ceer.compiled_predict", nReqs, 1e3))
	r.set("ceer.folded_predict_us", "us", per("ceer.folded_predict", nReqs, 1e3))
	nb := lt.Count["observe.batch"]
	r.set("serve.observe_ms", "ms", per("serve.observe", nb, 1e6))
	r.set("serve.observe_self_ms", "ms", per("serve.observe", nb, 1e6)-per("trace.decode", nb, 1e6)-per("ceer.calibrate", nb, 1e6))
}
