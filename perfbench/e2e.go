package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ceer"
	"ceer/internal/serve"
	"ceer/internal/serve/loadgen"
	"ceer/internal/trace"
)

const (
	// minRounds is the fewest rounds a run takes medians over while its
	// window lasts.
	minRounds = 3
	mib       = 1 << 20
)

// endToEnd runs the workload's session against the binary in rounds
// until the window is used, tracing nothing. Each round trains the
// model, boots the daemon on it, reads from it and feeds it
// observations. The correctness checks run on every round's outputs.
func (r *run) endToEnd(window float64) error {
	// The load generator is one process on one P: it drives one
	// connection at a time, and leaves the other CPU to the daemon. Its own
	// collections pause the reads it times, so it collects rarely.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	start := time.Now()
	tp, bp, rp, op := r.phase("train"), r.phase("boot"), r.phase("read"), r.phase("observe")
	var (
		trains         []procStats
		model0, log0   []byte
		reqs           []*http.Request
		bodies         [][]byte
		boots, bootCPU []float64
		rss            []float64
		all            readLog
		readTime       time.Duration
		readCPU        time.Duration
		obsN           int
		obsTime        time.Duration
	)
	model := filepath.Join(r.dir, "model.json")
	for round := 0; another(round, time.Since(start).Seconds(), window); round++ {
		// Train, to the same paths each time: the model file and
		// observation log every later phase uses.
		obsLog := filepath.Join(r.dir, "obs.jsonl")
		st, err := runTrain(r.bin, model, obsLog, r.seed)
		tp.add(err == nil)
		if err != nil {
			return err
		}
		trains = append(trains, st)
		m, err := os.ReadFile(model)
		if err != nil {
			return err
		}
		l, err := os.ReadFile(obsLog)
		if err != nil {
			return err
		}
		if round == 0 {
			model0, log0 = m, l
			// Inputs derived from the seed (and its observation log).
			reqs = loadgen.Prepare(ReadOps(r.seed, r.w.Reads, r.w.OffBatch))
			if bodies, err = ObsBodies(r.seed, log0, obsBodiesPerRound); err != nil {
				return err
			}
		} else {
			r.checkRepeat(fmt.Sprintf("round %d: model file", round), m, model0)
			r.checkRepeat(fmt.Sprintf("round %d: observation log", round), l, log0)
		}

		// Boot: exec to first 200; the last daemon stays up.
		var d *daemon
		for i := 0; i < bootsPerRound; i++ {
			dd, took, err := startDaemon(r.bin, []string{"-models", model, "-warmup"})
			bp.add(err == nil)
			if err != nil {
				return err
			}
			boots = append(boots, took.Seconds())
			bootCPU = append(bootCPU, dd.bootCPU.Seconds())
			if i == bootsPerRound-1 {
				d = dd
			} else if _, err := dd.stop(); err != nil {
				return err
			}
		}

		// Read, closed loop over one connection.
		cpu0, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		rl := readLoop(&loadgen.HTTPTarget{Base: d.base, Client: d.client}, reqs)
		cpu1, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		readCPU += cpu1 - cpu0
		ds, err := d.stop()
		if err != nil {
			return err
		}
		readTime += rl.took
		all.op = append(all.op, rl.op...)
		all.out = append(all.out, rl.out...)
		all.lat = append(all.lat, rl.lat...)
		rss = append(rss, float64(ds.MaxRSS)/mib)

		// Observe: a journaling daemon takes the drifted stream. The
		// journal is written and flushed per observation but not
		// fsynced: fsync on a shared virtual disk took 2-4x the
		// program's own ingest work and varied by a third between
		// back-to-back runs (see README.md).
		calibOut := filepath.Join(r.dir, fmt.Sprintf("calib-%d.json", round))
		od, _, err := startDaemon(r.bin, []string{"-models", model, "-fsync", "never",
			"-observe-journal", filepath.Join(r.dir, fmt.Sprintf("journal-%d.jsonl", round)), "-calib-out", calibOut})
		op.add(err == nil)
		if err != nil {
			return err
		}
		obs := observeLoop(od.client, od.base, bodies)
		if _, err := od.stop(); err != nil {
			return err
		}
		for _, ok := range obs.ok {
			op.add(ok)
		}
		if obs.err != nil {
			r.fail("round %d: observe: %v", round, obs.err)
		}
		obsN += obs.accepted
		obsTime += obs.took
		r.checkCalibration(model, calibOut, bodies, obs)
	}

	walls, cpus, trss := make([]float64, len(trains)), make([]float64, len(trains)), make([]float64, len(trains))
	for i, st := range trains {
		walls[i], cpus[i], trss[i] = st.Wall.Seconds(), st.CPU.Seconds(), float64(st.MaxRSS)/mib
	}
	r.set("train_s", "s", Median(walls))
	r.set("train_cpu_s", "s", Median(cpus))
	r.set("setup_s", "s", Median(boots))
	r.note("setup_cpu_s", Median(bootCPU))
	r.set("read_cpu_us", "us", float64(readCPU.Microseconds())/float64(len(all.lat)))
	r.note("req_per_s", float64(len(all.lat))/readTime.Seconds())
	r.set("obs_per_s", "1/s", float64(obsN)/obsTime.Seconds())
	r.set("max_rss_mb", "MB", Median(rss))
	r.note("train_max_rss_mb", Median(trss))
	// Percentiles over every read of the run, so a stall that hits a
	// few reads in one round still lands in the tail.
	lat := make([]float64, len(all.lat))
	for i, ns := range all.lat {
		lat[i] = float64(ns) / 1e6
	}
	p50, err := Percentile(lat, 0.50)
	if err != nil {
		return err
	}
	p99, err := Percentile(lat, 0.99)
	if err != nil {
		return err
	}
	r.set("latency_p50_ms", "ms", p50)
	// The p99 is printed, not gated: on a shared host it follows the
	// hypervisor's steal more than the program (see README.md).
	r.note("latency_p99_ms", p99)
	r.note("latency_samples", float64(len(lat)))
	return r.checkReads(rp, all, reqs, model)
}

// another reports whether a run that has used elapsed seconds of its
// window in round rounds starts one more: always the first; then, while
// the window lasts, up to minRounds, and after that while another round
// of the average length still fits. On a slow host the run so ends
// within a round of its window instead of after minRounds slow rounds.
func another(round int, elapsed, window float64) bool {
	switch {
	case round == 0:
		return true
	case elapsed >= window:
		return false
	case round < minRounds:
		return true
	default:
		return elapsed*float64(round+1)/float64(round) <= window
	}
}

// checkRepeat fails the run unless a repeated train at the same seed
// wrote the same bytes as the first.
func (r *run) checkRepeat(what string, got, first []byte) {
	if !bytes.Equal(got, first) {
		r.fail("%s differs from round 0's at the same seed (%d vs %d bytes)", what, len(got), len(first))
	}
}

// readLog is one read phase's record, by issue order.
type readLog struct {
	op   []int32 // index into the request stream
	out  []loadgen.Outcome
	lat  []int64       // ns
	took time.Duration // the whole phase
}

// readLoop issues every read of the stream in order, back to back.
func readLoop(t loadgen.Target, reqs []*http.Request) readLog {
	var rl readLog
	start := time.Now()
	for i := range reqs {
		t0 := time.Now()
		o := t.Do(i, reqs[i])
		t1 := time.Now()
		rl.lat = append(rl.lat, t1.Sub(t0).Nanoseconds())
		rl.op = append(rl.op, int32(i))
		rl.out = append(rl.out, o)
	}
	rl.took = time.Since(start)
	return rl
}

// checkReads compares every loopback read with the in-process handler's
// answer to the same op (status, length and FNV-64a hash of the body),
// from a server built on the same model file.
func (r *run) checkReads(t *tally, rl readLog, reqs []*http.Request, modelPath string) error {
	want, err := expectedOutcomes(modelPath, reqs, rl.op)
	if err != nil {
		return err
	}
	bad := 0
	for k, o := range rl.out {
		w := want[opKey(reqs[rl.op[k]])]
		ok := o.Status == http.StatusOK && o == w
		t.add(ok)
		if !ok {
			if bad == 0 {
				r.fail("read %s?%s: loopback %+v, in-process %+v", reqs[rl.op[k]].URL.Path, reqs[rl.op[k]].URL.RawQuery, o, w)
			}
			bad++
		}
	}
	if bad > 1 {
		r.fail("%d reads in all differ from the in-process handler", bad)
	}
	return nil
}

// expectedOutcomes answers each distinct query among the issued ops
// in-process through loadgen.HandlerTarget.
func expectedOutcomes(modelPath string, reqs []*http.Request, issued []int32) (map[string]loadgen.Outcome, error) {
	sys, err := ceer.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(sys, serve.Options{})
	if err != nil {
		return nil, err
	}
	ht := loadgen.NewHandlerTarget(srv)
	want := map[string]loadgen.Outcome{}
	for _, i := range issued {
		q := opKey(reqs[i])
		if _, ok := want[q]; !ok {
			want[q] = ht.Do(int(i), reqs[i])
		}
	}
	return want, nil
}

func opKey(req *http.Request) string { return req.URL.Path + "?" + req.URL.RawQuery }

// observeResult is one observe stream's record.
type observeResult struct {
	ok       []bool // per POST
	accepted int    // observations accepted over all POSTs
	took     time.Duration
	err      error
}

// observeLoop posts the bodies in order over c and requires each to be
// accepted whole.
func observeLoop(c *http.Client, base string, bodies [][]byte) observeResult {
	var res observeResult
	start := time.Now()
	for i, body := range bodies {
		n, err := postObserve(c, base, body)
		res.accepted += n
		res.ok = append(res.ok, err == nil)
		if err != nil && res.err == nil {
			res.err = fmt.Errorf("body %d: %w", i, err)
		}
	}
	res.took = time.Since(start)
	return res
}

// postObserve sends one observe body and returns how many observations
// the daemon accepted, failing unless it accepted all of them.
func postObserve(c *http.Client, base string, body []byte) (int, error) {
	resp, err := c.Post(base+"/v1/observe", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var or serve.ObserveResponse
	if err := json.Unmarshal(raw, &or); err != nil {
		return 0, fmt.Errorf("observe response: %w", err)
	}
	if want := bytes.Count(body, []byte("\n")); or.Accepted != want {
		return or.Accepted, fmt.Errorf("accepted %d of %d observations", or.Accepted, want)
	}
	return or.Accepted, nil
}

// checkCalibration compares the predictor the daemon wrote on drain
// with an offline Calibrator fed the same accepted observations.
func (r *run) checkCalibration(modelPath, calibOut string, bodies [][]byte, obs observeResult) {
	got, err := os.ReadFile(calibOut)
	if err != nil {
		r.fail("calibrated predictor: %v", err)
		return
	}
	var accepted [][]byte
	for i, ok := range obs.ok {
		if ok {
			accepted = append(accepted, bodies[i])
		}
	}
	want, err := replayCalibration(modelPath, accepted)
	if err != nil {
		r.fail("offline calibration replay: %v", err)
		return
	}
	if !bytes.Equal(got, want) {
		r.fail("calibrated predictor written on drain (%d bytes) differs from the offline replay (%d bytes)", len(got), len(want))
	}
}

// replayCalibration feeds the bodies' observations, in order, through a
// Calibrator over the model file under the daemon's default policy and
// returns the saved result.
func replayCalibration(modelPath string, bodies [][]byte) ([]byte, error) {
	sys, err := ceer.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	cal, err := sys.NewCalibrator(ceer.DefaultCalibrationPolicy())
	if err != nil {
		return nil, err
	}
	for _, body := range bodies {
		rd := trace.NewObsReader(bytes.NewReader(body))
		for {
			o, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if err := cal.Calibrate(o); err != nil {
				return nil, err
			}
		}
	}
	var buf bytes.Buffer
	if err := cal.Predictor().Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
