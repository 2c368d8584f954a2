package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/ansor"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/te"
)

// sameResult reports whether two whole-network results are bit-identical:
// the network latency and every task latency.
func sameResult(want, got ansor.NetworkResult) error {
	if math.Float64bits(want.Latency) != math.Float64bits(got.Latency) {
		return fmt.Errorf("network latency %v, want %v", got.Latency, want.Latency)
	}
	if len(want.TaskLatencies) != len(got.TaskLatencies) {
		return fmt.Errorf("%d task latencies, want %d", len(got.TaskLatencies), len(want.TaskLatencies))
	}
	for _, task := range sortedKeys(want.TaskLatencies) {
		w := want.TaskLatencies[task]
		g, ok := got.TaskLatencies[task]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("task %s latency %v, want %v", task, g, w)
		}
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// bestRecords returns each task's fastest record in a log (ties keep
// the earlier record, as the registry does).
func bestRecords(l *measure.Log) map[string]measure.Record {
	best := map[string]measure.Record{}
	for _, rec := range l.Records {
		if cur, ok := best[rec.Task]; !ok || rec.Seconds < cur.Seconds {
			best[rec.Task] = rec
		}
	}
	return best
}

// checkLogBests checks a tuning log against the tuned result, using
// only the machine model as reference: each task's best logged record
// must replay on the task's DAG, its re-simulated time must lie within
// the measurement-noise band of the logged time (the noise factor is
// exp(u·noiseStd) with |u| ≤ 1), and the logged time must be the task
// latency the tune reported.
func checkLogBests(l *measure.Log, dags map[string]*te.DAG, m *sim.Machine, noiseStd float64, res ansor.NetworkResult) error {
	best := bestRecords(l)
	for _, task := range sortedKeys(res.TaskLatencies) {
		rec, ok := best[task]
		if !ok {
			return fmt.Errorf("task %s: no record in the log", task)
		}
		if math.Float64bits(rec.Seconds) != math.Float64bits(res.TaskLatencies[task]) {
			return fmt.Errorf("task %s: best logged time %v, tuned latency %v", task, rec.Seconds, res.TaskLatencies[task])
		}
		s, err := rec.Replay(dags[task])
		if err != nil {
			return fmt.Errorf("task %s: replay: %w", task, err)
		}
		low, err := ir.Lower(s)
		if err != nil {
			return fmt.Errorf("task %s: lower: %w", task, err)
		}
		t := m.Time(low)
		if !(t > 0) || math.Abs(math.Log(rec.Seconds/t)) > noiseStd*(1+1e-9) {
			return fmt.Errorf("task %s: re-simulated %v s is outside the ±%g noise band of logged %v s",
				task, t, noiseStd, rec.Seconds)
		}
	}
	return nil
}

// checkStoreBests checks that a store, loaded on its own, holds exactly
// the expected best record for every key: same time, same program.
func checkStoreBests(store *registry.Registry, want map[registry.Key]measure.Record) error {
	if store.Len() != len(want) {
		return fmt.Errorf("store holds %d keys, want %d", store.Len(), len(want))
	}
	for k, w := range want {
		got, ok := store.Lookup(k)
		if !ok {
			return fmt.Errorf("key %s: missing from the store", k.Workload)
		}
		if got.Seconds != w.Seconds || !bytes.Equal(got.Steps, w.Steps) {
			return fmt.Errorf("key %s: store best %v s, want %v s", k.Workload, got.Seconds, w.Seconds)
		}
	}
	return nil
}

// keyOf is the registry key a record is filed under.
func keyOf(rec measure.Record) registry.Key {
	return registry.Key{Workload: rec.Task, Target: rec.Target, DAG: rec.DAG}
}

// bestByKey folds records into the per-key best the registry keeps
// (strictly faster wins; ties keep the incumbent).
func bestByKey(recs ...[]measure.Record) map[registry.Key]measure.Record {
	best := map[registry.Key]measure.Record{}
	for _, rs := range recs {
		for _, rec := range rs {
			k := keyOf(rec)
			if cur, ok := best[k]; !ok || rec.Seconds < cur.Seconds {
				best[k] = rec
			}
		}
	}
	return best
}

// publish is one timed write of the serve-best writer.
type publish struct {
	rec        measure.Record
	start, end time.Time
	err        error
}

// answer is one task latency an apply served, with the call's span.
type answer struct {
	key     registry.Key
	seconds float64
	call    span
}

// checkAnswer checks one served answer against the write history: the
// registry is linearizable per key, so an answer must be the best of
// the initial records plus some set of published records that contains
// every publish acknowledged before the call began and none started
// after it ended. With a per-key minimum that means: no slower than the
// best acknowledged before the call, no faster than the best started
// before its end, and the time of a record that was offered.
func checkAnswer(a answer, initial map[registry.Key]measure.Record, writes []publish) error {
	init, ok := initial[a.key]
	if !ok {
		return fmt.Errorf("key %s: answered %v s but the store started without it", a.key.Workload, a.seconds)
	}
	acked, started := init.Seconds, init.Seconds
	seen := a.seconds == init.Seconds
	for _, w := range writes {
		if w.err != nil || keyOf(w.rec) != a.key {
			continue
		}
		if w.end.Before(a.call.start) && w.rec.Seconds < acked {
			acked = w.rec.Seconds
		}
		if w.start.Before(a.call.end) {
			if w.rec.Seconds < started {
				started = w.rec.Seconds
			}
			seen = seen || a.seconds == w.rec.Seconds
		}
	}
	switch {
	case a.seconds > acked:
		return fmt.Errorf("key %s: answered %v s, stale: %v s was acknowledged before the call", a.key.Workload, a.seconds, acked)
	case a.seconds < started:
		return fmt.Errorf("key %s: answered %v s, faster than anything published by then (%v s)", a.key.Workload, a.seconds, started)
	case !seen:
		return fmt.Errorf("key %s: answered %v s, which no offered record has", a.key.Workload, a.seconds)
	}
	return nil
}
