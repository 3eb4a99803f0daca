// Command perfbench is the repository's benchmark: it runs one
// workload against a `ceer` binary built from the tree under test and
// prints every metric by name with its unit, checking the program's
// outputs as it goes. See README.md for the workloads and metrics.
//
// Usage (from the repository root, after run.sh has built the binary):
//
//	perfbench -ceer .bench_build/ceer --workload serve-zoo --seed 1 --seconds 60 --trace 0
//
// --trace 0 measures the end-to-end metrics against the real binary
// over loopback, with no tracing. --trace 1 replays the same workload
// in-process, timing the calls into each module from this package, and
// reports the per-layer metrics; spans are written to .bench_build/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Workload is one input set the benchmark runs. Every workload is a
// user session over the same pipeline — train a model, boot the daemon
// on it, read from it, feed observations to a journaling daemon —
// repeated in rounds until the measuring window is used, so the
// metrics' samples are spread over the whole window. The workloads
// differ in what the reads ask.
type Workload struct {
	Name string
	// Reads is how many ops of the read stream each round issues, the
	// same ops in every round: three to six seconds' worth on a 2-vCPU
	// VM, depending on its steal.
	Reads int
	// OffBatch makes every read carry a non-compiled batch=.
	OffBatch bool
}

const (
	// bootsPerRound is how many times each round boots the read daemon
	// to measure set-up; the last boot serves the reads.
	bootsPerRound = 5
	// obsBodiesPerRound is how many POST /v1/observe bodies of
	// obsBatchLines observations each round sends.
	obsBodiesPerRound = 96
)

// Workloads is the benchmark's workload table; README.md says why each
// was chosen.
var Workloads = []Workload{
	{Name: "serve-zoo", Reads: 12000},
	{Name: "serve-offbatch", Reads: 3500, OffBatch: true},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// tally counts one phase's operations.
type tally struct {
	Phase  string `json:"phase"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
}

// run is the state shared by a workload run's phases.
type run struct {
	w       Workload
	seed    uint64
	bin     string // ceer binary
	dir     string // scratch directory for this run
	metrics map[string]Metric
	notes   map[string]float64 // diagnostics printed beside the result
	tallies []*tally
	errs    []string
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = Metric{Value: v, Unit: unit} }

// note records a diagnostic that is printed but is not a metric.
func (r *run) note(name string, v float64) { r.notes[name] = v }

// fail records a correctness failure; the run still completes and
// prints its metrics, but reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.errs = append(r.errs, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

func (r *run) phase(name string) *tally {
	t := &tally{Phase: name}
	r.tallies = append(r.tallies, t)
	return t
}

func (t *tally) add(ok bool) {
	t.Sent++
	if ok {
		t.OK++
	} else {
		t.Failed++
	}
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := flags.String("workload", "", "workload name")
	seed := flags.Uint64("seed", 1, "input seed")
	seconds := flags.Int("seconds", 30, "measuring window in seconds")
	traced := flags.Int("trace", 0, "0: end-to-end run against the binary; 1: traced in-process replay")
	bin := flags.String("ceer", ".bench_build/ceer", "ceer binary built from the tree under test")
	work := flags.String("work", ".bench_build/work", "scratch directory for model files, journals and spans")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return err
	}
	var w *Workload
	for i := range Workloads {
		if Workloads[i].Name == *workload {
			w = &Workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("ceer binary: %w", err)
	}
	binAbs, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed, *traced))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := &run{w: *w, seed: *seed, bin: binAbs, dir: dir, metrics: map[string]Metric{}, notes: map[string]float64{}}
	stamp := hostStamp()
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"host": stamp}); err != nil {
		return err
	}

	steal0, total0 := cpuSteal()
	window := float64(*seconds)
	var names []string
	if *traced == 1 {
		err = r.traced(stamp, filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, *seed)))
		names = PerLayerMetrics
	} else {
		err = r.endToEnd(window)
		names = EndToEndMetrics
	}
	if err != nil {
		return err
	}
	// The share of CPU time the hypervisor gave to other guests during
	// the run: on a shared host, the first suspect when figures move
	// between runs of the same code.
	if steal1, total1 := cpuSteal(); total1 > total0 {
		r.note("host_steal_pct", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"diagnostics": r.notes}); err != nil {
		return err
	}
	// Each phase's request counts, for the log.
	for _, t := range r.tallies {
		if err := json.NewEncoder(os.Stdout).Encode(t); err != nil {
			return err
		}
	}
	res := Result{Correct: len(r.errs) == 0, Metrics: map[string]Metric{}}
	for _, t := range r.tallies {
		res.Attempted += t.Sent
		res.Failed += t.Failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", n)
		}
		res.Metrics[n] = m
	}
	if res.Attempted == 0 {
		return fmt.Errorf("internal: no operation attempted")
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// Stamp identifies the host and code a result was measured on, so
// results are only compared on the same host.
type Stamp struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostStamp() Stamp {
	return Stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	//lint:ignore errdrop read-only file
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal returns the host's cumulative steal and total CPU time, in
// clock ticks, from the aggregate line of /proc/stat (zeros when it
// cannot be read).
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commitID is the git commit of the tree under test, or "unknown"
// outside a git checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
