package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// ev stamps a canned event ms milliseconds after t0.
func ev(ms float64, e obs.Event) obs.Event {
	e.V = obs.Version
	e.TS = t0.Add(time.Duration(ms * float64(time.Millisecond))).Format(time.RFC3339Nano)
	return e
}

// cannedStream is a two-task network (A weighs 2, B 1) tuned in three
// waves: a warm-up wave running both tasks concurrently, then one
// gradient pick each. B's rounds finish out of wave order in the
// stream, as concurrent rounds may.
func cannedStream() []obs.Event {
	return []obs.Event{
		ev(0, obs.Event{Type: obs.EvWaveScheduled, Count: 2, Detail: "A,B"}),
		ev(1, obs.Event{Type: obs.EvRoundStart, Task: "B", Round: 1}),
		ev(1, obs.Event{Type: obs.EvRoundStart, Task: "A", Round: 1}),
		ev(5, obs.Event{Type: obs.EvPhase, Task: "B", Round: 1, Phase: "sketch", DurMS: 4}),
		ev(6, obs.Event{Type: obs.EvPhase, Task: "A", Round: 1, Phase: "sketch", DurMS: 5}),
		ev(20, obs.Event{Type: obs.EvPhase, Task: "B", Round: 1, Phase: "measure", DurMS: 15}),
		ev(20, obs.Event{Type: obs.EvBestImproved, Task: "B", Round: 1, Seconds: 6}),
		ev(20, obs.Event{Type: obs.EvBestImproved, Task: "B", Round: 1, Seconds: 5}),
		ev(30, obs.Event{Type: obs.EvPhase, Task: "B", Round: 1, Phase: "train", DurMS: 10}),
		ev(30, obs.Event{Type: obs.EvModelTrained, Task: "B", Round: 1, Detail: "refit"}),
		ev(30, obs.Event{Type: obs.EvRoundEnd, Task: "B", Round: 1, Count: 4}),
		ev(26, obs.Event{Type: obs.EvPhase, Task: "A", Round: 1, Phase: "measure", DurMS: 20}),
		ev(26, obs.Event{Type: obs.EvBestImproved, Task: "A", Round: 1, Seconds: 10}),
		ev(40, obs.Event{Type: obs.EvPhase, Task: "A", Round: 1, Phase: "train", DurMS: 14}),
		ev(40, obs.Event{Type: obs.EvModelTrained, Task: "A", Round: 1, Detail: "refit"}),
		ev(40, obs.Event{Type: obs.EvRoundEnd, Task: "A", Round: 1, Count: 4}),
		ev(50, obs.Event{Type: obs.EvWaveScheduled, Count: 1, Detail: "A"}),
		ev(50, obs.Event{Type: obs.EvRoundStart, Task: "A", Round: 2}),
		ev(70, obs.Event{Type: obs.EvPhase, Task: "A", Round: 2, Phase: "evolve", DurMS: 20}),
		ev(75, obs.Event{Type: obs.EvBestImproved, Task: "A", Round: 2, Seconds: 8}),
		ev(78, obs.Event{Type: obs.EvModelTrained, Task: "A", Round: 2, Detail: "boost"}),
		ev(78, obs.Event{Type: obs.EvRoundEnd, Task: "A", Round: 2, Count: 4}),
		ev(80, obs.Event{Type: obs.EvWaveScheduled, Count: 1, Detail: "B"}),
		ev(80, obs.Event{Type: obs.EvRoundStart, Task: "B", Round: 2}),
		ev(95, obs.Event{Type: obs.EvRoundEnd, Task: "B", Round: 2, Count: 4}),
	}
}

var (
	cannedTasks   = []string{"A", "B"}
	cannedWeights = map[string]float64{"A": 2, "B": 1}
	cannedCall    = span{t0.Add(-10 * time.Millisecond), t0.Add(100 * time.Millisecond)}
)

func TestFoldCannedStream(t *testing.T) {
	f, err := foldTune(cannedStream(), cannedTasks, cannedWeights, cannedCall)
	if err != nil {
		t.Fatal(err)
	}
	if f.refits != 2 || f.boosts != 1 || len(f.rounds) != 4 || f.waves != 3 || f.events != 25 {
		t.Errorf("counts: refits %d boosts %d rounds %d waves %d events %d, want 2 1 4 3 25",
			f.refits, f.boosts, len(f.rounds), f.waves, f.events)
	}
	// Allocation order A1, B1, A2, B2: A alone leaves the network
	// unmeasured; then 2·10+5, 2·8+5, 2·8+5.
	wantTrials := []int{4, 8, 12, 16}
	wantLat := []float64{0, 25, 21, 21}
	for i, p := range f.curve {
		if p.trials != wantTrials[i] || (i > 0 && p.latency != wantLat[i]) {
			t.Errorf("curve[%d] = %+v, want trials %d latency %v", i, p, wantTrials[i], wantLat[i])
		}
	}
	if f.latency != 21 || f.trialsTo95 != 12 {
		t.Errorf("latency %v trialsTo95 %d, want 21 and 12", f.latency, f.trialsTo95)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for layer, want := range map[string]float64{
		"anno.sample": 9, "measure.batch": 35, "xgb.train": 24, "evo.search": 20,
		"policy.round": 39 + 29 + 28 + 15,
		"sched.wave":   100,
	} {
		if got := ms(f.busy[layer]); got != want {
			t.Errorf("busy %s = %v ms, want %v", layer, got, want)
		}
	}
	for layer, want := range map[string]float64{
		// A1 [1,40] minus sketch [1,6], measure [6,26], train [26,40]: 0.
		// B1 [1,30] minus [1,5], [5,20], [20,30]: 0. A2 [50,78] minus
		// evolve [50,70]: 8. B2 [80,95] has no phases: 15.
		"policy.round": 23,
		// Wave 1 [0,50] minus rounds [1,40]: 11; wave 2 [50,80] minus
		// [50,78]: 2; wave 3 [80,100] minus [80,95]: 5.
		"sched.wave": 18,
		// The call [-10,100] minus waves [0,100]: 10.
		"ansor.TuneNetwork": 10,
	} {
		if got := ms(f.self[layer]); got != want {
			t.Errorf("self %s = %v ms, want %v", layer, got, want)
		}
	}
	table := strings.Join(f.table(), "\n")
	for _, layer := range layerOrder {
		if !strings.Contains(table, layer) {
			t.Errorf("self-time table lacks %s:\n%s", layer, table)
		}
	}
}

func TestFoldRejectsBrokenStreams(t *testing.T) {
	cases := map[string]func([]obs.Event) []obs.Event{
		"wave names a round that never ran": func(es []obs.Event) []obs.Event {
			return append(es, ev(99, obs.Event{Type: obs.EvWaveScheduled, Count: 1, Detail: "A"}))
		},
		"round no wave names": func(es []obs.Event) []obs.Event {
			return append(es, ev(96, obs.Event{Type: obs.EvRoundStart, Task: "B", Round: 3}),
				ev(97, obs.Event{Type: obs.EvRoundEnd, Task: "B", Round: 3, Count: 4}))
		},
		"round never ends": func(es []obs.Event) []obs.Event { return es[:len(es)-1] },
		"phase outside a round": func(es []obs.Event) []obs.Event {
			return append(es, ev(99, obs.Event{Type: obs.EvPhase, Task: "A", Phase: "train", DurMS: 1}))
		},
		"wave count disagrees with its names": func(es []obs.Event) []obs.Event {
			es[0].Count = 3
			return es
		},
		"unknown phase": func(es []obs.Event) []obs.Event {
			es[3].Phase = "lower"
			return es
		},
		"bad timestamp": func(es []obs.Event) []obs.Event {
			es[5].TS = "yesterday"
			return es
		},
		"a task never improves": func(es []obs.Event) []obs.Event {
			var out []obs.Event
			for _, e := range es {
				if !(e.Type == obs.EvBestImproved && e.Task == "B") {
					out = append(out, e)
				}
			}
			return out
		},
	}
	for name, tamper := range cases {
		if _, err := foldTune(tamper(cannedStream()), cannedTasks, cannedWeights, cannedCall); err == nil {
			t.Errorf("%s: fold accepted the stream", name)
		}
	}
}

func TestCovered(t *testing.T) {
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := span{at(10), at(50)}
	children := []span{{at(0), at(15)}, {at(20), at(30)}, {at(25), at(35)}, {at(45), at(60)}}
	if got := covered(s, children); got != 25*time.Millisecond {
		t.Errorf("covered = %v, want 25ms (5 + 15 + 5, clipped and merged)", got)
	}
	if got := covered(s, nil); got != 0 {
		t.Errorf("covered with no children = %v", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v", got)
	}
	h := obs.HistSnapshot{Bounds: []float64{1, 2, 4}, Counts: []int64{0, 10, 10, 0}, Count: 20}
	if got := histQuantile(h, 0.5); got != 2 {
		t.Errorf("hist p50 = %v, want 2 (top of the second bucket)", got)
	}
	if got := histQuantile(h, 0.75); got != 3 {
		t.Errorf("hist p75 = %v, want 3 (half-way through (2,4])", got)
	}
	before := obs.HistSnapshot{Bounds: h.Bounds, Counts: []int64{0, 10, 0, 0}, Count: 10}
	if got := histQuantile(histDelta(h, before), 0.5); got != 3 {
		t.Errorf("delta p50 = %v, want 3", got)
	}
	sum := histAdd(histAdd(obs.HistSnapshot{}, histDelta(h, before)), before)
	if sum.Count != h.Count || histQuantile(sum, 0.75) != 3 {
		t.Errorf("delta plus before = %+v, want %+v", sum, h)
	}
}
