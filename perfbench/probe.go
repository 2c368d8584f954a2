package main

import (
	"fmt"
	"time"

	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/te"
)

// probeRecords bounds how many of the run's records the program probes
// time, spread evenly over the log.
const probeRecords = 256

// probePasses is how many times each probe repeats over its inputs; the
// per-call figure is the median over all calls.
const probePasses = 3

// sinkF and sinkX keep probed results live, so no call is optimised away.
var (
	sinkF float64
	sinkX [][]float64
)

// timeCalls times fn once per input, probePasses times over, and
// returns the median per-call time in microseconds.
func timeCalls(n int, fn func(i int) error) (float64, error) {
	var us []float64
	for p := 0; p < probePasses; p++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := fn(i); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(us), nil
}

// probePrograms times the layers hidden inside the search phases on the
// run's own programs: Record.Replay, ir.Lower, sim.Machine.Time and
// feat.Extract, one call each per record.
func probePrograms(r *run, recs []measure.Record, dags map[string]*te.DAG, m *sim.Machine) error {
	var sample []measure.Record
	for _, rec := range recs {
		if dags[rec.Task] != nil {
			sample = append(sample, rec)
		}
	}
	if len(sample) == 0 {
		return fmt.Errorf("probe: no records of the run's tasks")
	}
	if len(sample) > probeRecords {
		step := float64(len(sample)) / probeRecords
		picked := make([]measure.Record, probeRecords)
		for i := range picked {
			picked[i] = sample[int(float64(i)*step)]
		}
		sample = picked
	}
	states := make([]*ir.State, len(sample))
	lowered := make([]*ir.Lowered, len(sample))
	replay, err := timeCalls(len(sample), func(i int) error {
		s, err := sample[i].Replay(dags[sample[i].Task])
		states[i] = s
		return err
	})
	if err != nil {
		return fmt.Errorf("probe replay: %w", err)
	}
	lower, err := timeCalls(len(sample), func(i int) error {
		low, err := ir.Lower(states[i])
		lowered[i] = low
		return err
	})
	if err != nil {
		return fmt.Errorf("probe lower: %w", err)
	}
	simT, _ := timeCalls(len(sample), func(i int) error {
		sinkF = m.Time(lowered[i])
		return nil
	})
	extract, _ := timeCalls(len(sample), func(i int) error {
		sinkX = feat.Extract(lowered[i])
		return nil
	})
	r.set("measure.replay_us", replay)
	r.set("ir.lower_us", lower)
	r.set("sim.time_us", simT)
	r.set("feat.extract_us", extract)
	r.logf("  probes over %d records: replay %.1f us, lower %.1f us, sim %.1f us, extract %.1f us",
		len(sample), replay, lower, simT, extract)
	return nil
}

// probeDAGs times the binary DAG wire codec, the fleet's per-job
// encoding, on every task DAG of the networks.
func probeDAGs(r *run, specs ...*netSpec) error {
	var dags []*te.DAG
	for _, s := range specs {
		for _, task := range s.tasks {
			dags = append(dags, s.dags[task])
		}
	}
	wire := make([][]byte, len(dags))
	enc, err := timeCalls(len(dags), func(i int) error {
		b, err := te.EncodeDAGBinary(dags[i])
		wire[i] = b
		return err
	})
	if err != nil {
		return fmt.Errorf("probe dag encode: %w", err)
	}
	dec, err := timeCalls(len(dags), func(i int) error {
		_, err := te.DecodeDAGBinary(wire[i])
		return err
	})
	if err != nil {
		return fmt.Errorf("probe dag decode: %w", err)
	}
	bytes := 0
	for _, b := range wire {
		bytes += len(b)
	}
	r.set("te.dag_encode_us", enc)
	r.set("te.dag_decode_us", dec)
	r.set("te.dag_bytes", float64(bytes)/float64(len(wire)))
	return nil
}
