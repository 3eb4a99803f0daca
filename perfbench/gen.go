package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"ceer"
	"ceer/internal/gpu"
	"ceer/internal/rng"
	"ceer/internal/serve/loadgen"
	"ceer/internal/trace"
)

// Derivation salts for the benchmark's own seeded streams, disjoint
// from loadgen's and the simulator's.
const (
	saltOffBatch = 0xbe7c0001
	saltDrift    = 0xbe7c0002
)

// offBatchSizes are the per-GPU batch sizes serve-offbatch requests
// carry: none is the compiled batch (32), so every request takes the
// daemon's uncompiled path.
var offBatchSizes = []int64{8, 16, 64, 128}

// obsBatchLines is the number of observations per POST /v1/observe.
const obsBatchLines = 256

// configNames lists every candidate configuration string the daemon
// accepts as config= (1..4 GPUs of each family).
func configNames() []string {
	cfgs := ceer.AllConfigs(4)
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.String()
	}
	return out
}

// ReadOps generates the read stream: loadgen's seeded mix over all zoo
// models (predict with full sweep or one config, recommend by cost or
// time, on-demand or market pricing). With offBatch, request i also
// carries batch=B, B drawn from offBatchSizes by a stream derived from
// (seed, i), so op i is the same however many ops are generated.
func ReadOps(seed uint64, n int, offBatch bool) []loadgen.Op {
	ops := loadgen.Generate(loadgen.Spec{Seed: seed, Requests: n, Models: ceer.Models(), Configs: configNames()})
	if offBatch {
		root := rng.New(seed).Derive(saltOffBatch)
		for i := range ops {
			b := offBatchSizes[root.Derive(uint64(i)).Intn(len(offBatchSizes))]
			ops[i].RawQuery += "&batch=" + strconv.FormatInt(b, 10)
		}
	}
	return ops
}

// DriftStep slows one device's observations by Factor, from the Onset
// share of that device's observations on.
type DriftStep struct {
	GPU    string
	Onset  float64
	Factor float64
}

// DriftSchedule draws the per-device drift. Every registered device
// drifts once, so every seed asks the daemon for about the same
// calibration work: the devices take the onsets 10%, ..., 60% of their
// own observations, evenly spaced, in a seeded order, each with a
// seeded factor between 1.2 and 1.4 (inside the daemon's default 0.5
// swap tolerance, so refits are installed rather than rejected).
func DriftSchedule(seed uint64) []DriftStep {
	devs := gpu.All()
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = string(d)
	}
	sort.Strings(names)
	r := rng.New(seed).Derive(saltDrift)
	// Fisher-Yates over the onset slots.
	slot := make([]int, len(names))
	for i := range slot {
		slot[i] = i
	}
	for i := len(slot) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		slot[i], slot[j] = slot[j], slot[i]
	}
	steps := make([]DriftStep, len(names))
	for i, name := range names {
		onset := 0.1
		if len(names) > 1 {
			onset += 0.5 * float64(slot[i]) / float64(len(names)-1)
		}
		steps[i] = DriftStep{GPU: name, Onset: onset, Factor: 1.2 + 0.2*r.Float64()}
	}
	return steps
}

// ApplyDrift rescales obs in place under the schedule.
func ApplyDrift(obs []trace.Obs, steps []DriftStep) {
	total := map[string]int{}
	for _, o := range obs {
		total[string(o.GPU)]++
	}
	for _, st := range steps {
		onset, seen := int(st.Onset*float64(total[st.GPU])), 0
		for i := range obs {
			if string(obs[i].GPU) != st.GPU {
				continue
			}
			if seen >= onset {
				obs[i].Seconds *= st.Factor
			}
			seen++
		}
	}
}

// ObsBodies reads an observation log, keeps its first n*obsBatchLines
// observations (all of them when n is 0), applies the seed's drift
// schedule over what it kept, and cuts that into POST bodies of
// obsBatchLines JSONL lines each.
func ObsBodies(seed uint64, log []byte, n int) ([][]byte, error) {
	obs, err := trace.ReadObsLog(bytes.NewReader(log))
	if err != nil {
		return nil, fmt.Errorf("reading observation log: %w", err)
	}
	if n > 0 && n*obsBatchLines < len(obs) {
		obs = obs[:n*obsBatchLines]
	}
	if len(obs) == 0 {
		return nil, fmt.Errorf("observation log is empty")
	}
	ApplyDrift(obs, DriftSchedule(seed))
	var bodies [][]byte
	for lo := 0; lo < len(obs); lo += obsBatchLines {
		var buf bytes.Buffer
		w := trace.NewObsWriter(&buf)
		for _, o := range obs[lo:min(lo+obsBatchLines, len(obs))] {
			if err := w.Write(o); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies, nil
}
