package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/ansor"
	"repro/internal/measure"
	"repro/internal/registry"
	"repro/internal/te"
)

// tinyNetwork is a one-task network that tunes in well under a second.
func tinyNetwork(t *testing.T) (*netSpec, ansor.Target) {
	t.Helper()
	build := func() *ansor.DAG {
		b := ansor.NewComputeBuilder("mm")
		a := b.Input("A", 64, 64)
		c := b.Matmul(a, 64, true)
		b.ReLU(c)
		dag, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return dag
	}
	n := ansor.Network{Name: "tiny", Tasks: []ansor.NetworkTask{{Name: "mm", Weight: 3, Build: build}}}
	return &netSpec{net: n, tasks: []string{"mm"}, dags: map[string]*te.DAG{"mm": build()},
		weights: map[string]float64{"mm": 3}}, ansor.TargetIntelCPU(false)
}

// tunedLog tunes the tiny network with a tuning log.
func tunedLog(t *testing.T) (*netSpec, ansor.Target, ansor.NetworkResult, *measure.Log) {
	t.Helper()
	spec, target := tinyNetwork(t)
	path := filepath.Join(t.TempDir(), "tune.log")
	res, err := ansor.TuneNetwork(spec.net, target, ansor.TuningOptions{
		Trials: 16, MeasuresPerRound: 8, Seed: 3, RecordTo: path})
	if err != nil {
		t.Fatal(err)
	}
	l, err := measure.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec, target, res, l
}

func TestSameResultRejectsTampering(t *testing.T) {
	want := ansor.NetworkResult{Latency: 3e-3, TaskLatencies: map[string]float64{"a": 1e-3, "b": 1e-3}}
	got := ansor.NetworkResult{Latency: 3e-3, TaskLatencies: map[string]float64{"a": 1e-3, "b": 1e-3}}
	if err := sameResult(want, got); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	got.TaskLatencies["b"] = math.Nextafter(1e-3, 1)
	if err := sameResult(want, got); err == nil {
		t.Error("a task latency one ulp off was accepted")
	}
	got.TaskLatencies["b"] = 1e-3
	got.Latency = math.Nextafter(3e-3, 0)
	if err := sameResult(want, got); err == nil {
		t.Error("a network latency one ulp off was accepted")
	}
	got.Latency = 3e-3
	delete(got.TaskLatencies, "b")
	if err := sameResult(want, got); err == nil {
		t.Error("a missing task was accepted")
	}
}

func TestCheckLogBestsRejectsTampering(t *testing.T) {
	spec, target, res, l := tunedLog(t)
	if err := checkLogBests(l, spec.dags, target.Machine, 0.02, res); err != nil {
		t.Fatalf("untampered log rejected: %v", err)
	}
	bestIdx := func(l *measure.Log) int {
		idx := 0
		for i, rec := range l.Records {
			if rec.Seconds < l.Records[idx].Seconds {
				idx = i
			}
		}
		return idx
	}
	copyLog := func() *measure.Log {
		return &measure.Log{Records: append([]measure.Record(nil), l.Records...)}
	}

	// A logged time outside the noise band of the machine model: scale
	// the best record and the tuned latency together, so only the
	// re-simulation can notice.
	slow := copyLog()
	i := bestIdx(slow)
	slow.Records[i].Seconds *= 0.9
	shifted := ansor.NetworkResult{Latency: res.Latency, TaskLatencies: map[string]float64{"mm": slow.Records[i].Seconds}}
	if err := checkLogBests(slow, spec.dags, target.Machine, 0.02, shifted); err == nil ||
		!strings.Contains(err.Error(), "noise band") {
		t.Errorf("time outside the noise band: err = %v", err)
	}

	// Steps that no longer replay on the DAG.
	broken := copyLog()
	broken.Records[bestIdx(broken)].Steps = []byte(`[{"kind":"no-such-step"}]`)
	if err := checkLogBests(broken, spec.dags, target.Machine, 0.02, res); err == nil {
		t.Error("unreplayable best record was accepted")
	}

	// A tuned latency the log does not hold.
	other := ansor.NetworkResult{Latency: res.Latency, TaskLatencies: map[string]float64{"mm": res.TaskLatencies["mm"] * 1.001}}
	if err := checkLogBests(l, spec.dags, target.Machine, 0.02, other); err == nil {
		t.Error("latency absent from the log was accepted")
	}

	// A task with no record at all.
	empty := &measure.Log{}
	if err := checkLogBests(empty, spec.dags, target.Machine, 0.02, res); err == nil {
		t.Error("empty log was accepted")
	}
}

func TestCheckStoreBestsRejectsTampering(t *testing.T) {
	_, _, _, l := tunedLog(t)
	want := bestByKey(l.Records)
	store := registry.New()
	store.AddLog(l)
	if err := checkStoreBests(store, want); err != nil {
		t.Fatalf("untampered store rejected: %v", err)
	}
	// A store that lost the best record keeps a slower one.
	lossy := registry.New()
	var best measure.Record
	for _, rec := range want {
		best = rec
	}
	for _, rec := range l.Records {
		if rec.Seconds != best.Seconds {
			lossy.Add(rec)
		}
	}
	if err := checkStoreBests(lossy, want); err == nil {
		t.Error("store missing its best record was accepted")
	}
	// Same time, different program.
	forged := best
	forged.Steps = append([]byte(nil), best.Steps...)
	forged.Steps[len(forged.Steps)-2] ^= 1
	swapped := registry.New()
	swapped.Add(forged)
	if err := checkStoreBests(swapped, want); err == nil {
		t.Error("store serving another program at the best time was accepted")
	}
	if err := checkStoreBests(registry.New(), want); err == nil {
		t.Error("empty store was accepted")
	}
}

func TestCheckAnswerRejectsTampering(t *testing.T) {
	k := registry.Key{Workload: "mm", Target: "cpu", DAG: "d"}
	rec := func(sec float64) measure.Record {
		return measure.Record{Task: "mm", Target: "cpu", DAG: "d", Seconds: sec}
	}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	initial := map[registry.Key]measure.Record{k: rec(10)}
	writes := []publish{
		{rec: rec(8), start: at(0), end: at(5)},   // acknowledged before the call
		{rec: rec(6), start: at(15), end: at(40)}, // overlaps the call
		{rec: rec(4), start: at(50), end: at(55)}, // after the call
	}
	call := span{at(10), at(20)}
	for _, sec := range []float64{8, 6} {
		if err := checkAnswer(answer{key: k, seconds: sec, call: call}, initial, writes); err != nil {
			t.Errorf("valid answer %v rejected: %v", sec, err)
		}
	}
	for sec, why := range map[float64]string{
		10: "stale",      // misses the acknowledged 8
		4:  "faster",     // published after the call ended
		7:  "no offered", // never published
	} {
		err := checkAnswer(answer{key: k, seconds: sec, call: call}, initial, writes)
		if err == nil || !strings.Contains(err.Error(), why) {
			t.Errorf("answer %v: err = %v, want %q", sec, err, why)
		}
	}
	other := registry.Key{Workload: "mm", Target: "cpu", DAG: "other"}
	if err := checkAnswer(answer{key: other, seconds: 8, call: call}, initial, writes); err == nil {
		t.Error("answer for a key the store never had was accepted")
	}
}
