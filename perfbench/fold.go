package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of the trace.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// phaseLayer maps the policy's phase labels to the module doing the work.
var phaseLayer = map[string]string{
	"sketch":  "anno.sample",
	"evolve":  "evo.search",
	"score":   "xgb.score",
	"measure": "measure.batch",
	"train":   "xgb.train",
}

// layerOrder is the row order of the self-time table.
var layerOrder = []string{"ansor.TuneNetwork", "sched.wave", "policy.round",
	"anno.sample", "evo.search", "xgb.score", "measure.batch", "xgb.train"}

// round is one policy.SearchRound as the event stream narrates it.
type round struct {
	span     span
	count    int // programs picked for measurement
	best     float64
	improved bool
	phases   map[string][]span
}

// tuneFold is what one traced whole-network tune's event stream says
// about each layer.
type tuneFold struct {
	events  int
	refits  int
	boosts  int
	waves   int
	rounds  []*round
	busy    map[string]time.Duration // per layer: summed span time
	self    map[string]time.Duration // per layer: span time not covered by child spans
	spans   map[string]int
	measure []float64 // measure phase durations, seconds
	// curve is the network latency estimate after each round, in
	// scheduler allocation order, with the cumulative trials spent.
	curve []curvePoint
	// latency is the final Σ w·g; trialsTo95 the first cumulative trial
	// count whose estimate is within 5% of it.
	latency    float64
	trialsTo95 int
}

type curvePoint struct {
	trials  int
	latency float64
}

func parseTS(e obs.Event) (time.Time, error) {
	t, err := time.Parse(time.RFC3339Nano, e.TS)
	if err != nil {
		return time.Time{}, fmt.Errorf("event %s: bad timestamp %q", e.Type, e.TS)
	}
	return t, nil
}

// foldTune folds the events of one whole-network tune. tasks lists the
// network's task names in network order and weights their appearance
// counts; call is the benchmark's span around the TuneNetwork call.
//
// Rounds are matched to scheduler waves by sequence, not by time: the
// k-th wave naming a task carries that task's k-th round, and the
// scheduler books a wave's rounds in the order the wave names them. So
// the latency curve and trials_to_95pct are deterministic even though a
// wave's rounds run concurrently.
func foldTune(events []obs.Event, tasks []string, weights map[string]float64, call span) (*tuneFold, error) {
	f := &tuneFold{events: len(events), busy: map[string]time.Duration{},
		self: map[string]time.Duration{}, spans: map[string]int{}}
	perTask := map[string][]*round{}
	open := map[string]*round{}
	var waves [][]string
	var waveStart []time.Time
	for _, e := range events {
		ts, err := parseTS(e)
		if err != nil {
			return nil, err
		}
		switch e.Type {
		case obs.EvWaveScheduled:
			names := strings.Split(e.Detail, ",")
			if e.Detail == "" || len(names) != e.Count {
				return nil, fmt.Errorf("wave_scheduled names %q do not match count %d", e.Detail, e.Count)
			}
			waves = append(waves, names)
			waveStart = append(waveStart, ts)
		case obs.EvRoundStart:
			if open[e.Task] != nil {
				return nil, fmt.Errorf("task %s: round_start inside an open round", e.Task)
			}
			rd := &round{span: span{start: ts}, phases: map[string][]span{}}
			open[e.Task] = rd
			perTask[e.Task] = append(perTask[e.Task], rd)
			f.rounds = append(f.rounds, rd)
		case obs.EvRoundEnd, obs.EvPhase, obs.EvBestImproved, obs.EvModelTrained:
			rd := open[e.Task]
			if rd == nil {
				return nil, fmt.Errorf("task %s: %s outside a round", e.Task, e.Type)
			}
			switch e.Type {
			case obs.EvRoundEnd:
				rd.span.end = ts
				rd.count = e.Count
				delete(open, e.Task)
			case obs.EvPhase:
				layer, ok := phaseLayer[e.Phase]
				if !ok {
					return nil, fmt.Errorf("task %s: unknown phase %q", e.Task, e.Phase)
				}
				d := time.Duration(e.DurMS * float64(time.Millisecond))
				rd.phases[layer] = append(rd.phases[layer], span{ts.Add(-d), ts})
				if layer == "measure.batch" {
					f.measure = append(f.measure, d.Seconds())
				}
			case obs.EvBestImproved:
				if !rd.improved || e.Seconds < rd.best {
					rd.best = e.Seconds
				}
				rd.improved = true
			case obs.EvModelTrained:
				switch e.Detail {
				case "refit":
					f.refits++
				case "boost":
					f.boosts++
				default:
					return nil, fmt.Errorf("task %s: unknown model_trained mode %q", e.Task, e.Detail)
				}
			}
		}
	}
	for task, rd := range open {
		return nil, fmt.Errorf("task %s: round %v never ended", task, rd.span.start)
	}
	f.waves = len(waves)
	if err := f.foldCurve(waves, perTask, tasks, weights); err != nil {
		return nil, err
	}
	f.foldSelfTime(waves, waveStart, perTask, call)
	return f, nil
}

// foldCurve replays the scheduler's allocation order to rebuild the
// network latency estimate after every round.
func (f *tuneFold) foldCurve(waves [][]string, perTask map[string][]*round, tasks []string, weights map[string]float64) error {
	next := map[string]int{}
	g := map[string]float64{}
	trials := 0
	for _, wave := range waves {
		for _, task := range wave {
			k := next[task]
			if k >= len(perTask[task]) {
				return fmt.Errorf("task %s: wave names round %d but only %d ran", task, k+1, len(perTask[task]))
			}
			next[task] = k + 1
			rd := perTask[task][k]
			trials += rd.count
			if rd.improved {
				if cur, ok := g[task]; !ok || rd.best < cur {
					g[task] = rd.best
				}
			}
			lat := 0.0
			for _, t := range tasks {
				best, ok := g[t]
				if !ok {
					lat = math.Inf(1)
					break
				}
				lat += weights[t] * best
			}
			f.curve = append(f.curve, curvePoint{trials, lat})
		}
	}
	for task, rs := range perTask {
		if next[task] != len(rs) {
			return fmt.Errorf("task %s: %d rounds ran but waves name %d", task, len(rs), next[task])
		}
	}
	if len(f.curve) == 0 {
		return fmt.Errorf("no scheduler waves in the event stream")
	}
	f.latency = f.curve[len(f.curve)-1].latency
	if math.IsInf(f.latency, 1) {
		return fmt.Errorf("some tasks never improved on +Inf")
	}
	for _, p := range f.curve {
		if p.latency <= 1.05*f.latency {
			f.trialsTo95 = p.trials
			break
		}
	}
	return nil
}

// foldSelfTime fills the per-layer busy and self times. A wave spans
// from its wave_scheduled event to the next one (the last to the end
// of the call); a layer's self time is its span minus the union of its
// children's spans clipped to it.
func (f *tuneFold) foldSelfTime(waves [][]string, waveStart []time.Time, perTask map[string][]*round, call span) {
	add := func(layer string, s span, children []span) {
		f.spans[layer]++
		f.busy[layer] += s.dur()
		f.self[layer] += s.dur() - covered(s, children)
	}
	next := map[string]int{}
	var waveSpans []span
	for i, wave := range waves {
		ws := span{start: waveStart[i], end: call.end}
		if i+1 < len(waves) {
			ws.end = waveStart[i+1]
		}
		waveSpans = append(waveSpans, ws)
		var rounds []span
		for _, task := range wave {
			rd := perTask[task][next[task]]
			next[task]++
			rounds = append(rounds, rd.span)
			var phases []span
			for _, layer := range layerOrder[3:] {
				for _, ps := range rd.phases[layer] {
					add(layer, ps, nil)
					phases = append(phases, ps)
				}
			}
			add("policy.round", rd.span, phases)
		}
		add("sched.wave", ws, rounds)
	}
	add("ansor.TuneNetwork", call, waveSpans)
}

// covered returns how much of s the union of children covers.
func covered(s span, children []span) time.Duration {
	var iv []span
	for _, c := range children {
		if c.start.Before(s.start) {
			c.start = s.start
		}
		if c.end.After(s.end) {
			c.end = s.end
		}
		if c.end.After(c.start) {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start.Before(iv[j].start) })
	var total time.Duration
	var cur span
	for i, c := range iv {
		if i == 0 || c.start.After(cur.end) {
			total += cur.dur()
			cur = c
			continue
		}
		if c.end.After(cur.end) {
			cur.end = c.end
		}
	}
	return total + cur.dur()
}

// roundDurations returns every round's duration in seconds.
func (f *tuneFold) roundDurations() []float64 {
	out := make([]float64, len(f.rounds))
	for i, rd := range f.rounds {
		out[i] = rd.span.dur().Seconds()
	}
	return out
}

// table renders the self-time table: per layer the span count, the
// summed span time (busy; concurrent spans add up), the self time, and
// the self time's share of all self time, which is the busy time of
// the whole call.
func (f *tuneFold) table() []string {
	var total time.Duration
	for _, layer := range layerOrder {
		total += f.self[layer]
	}
	out := []string{fmt.Sprintf("  %-18s %6s %10s %10s %7s", "layer", "spans", "busy_s", "self_s", "self%")}
	for _, layer := range layerOrder {
		share := 0.0
		if total > 0 {
			share = 100 * f.self[layer].Seconds() / total.Seconds()
		}
		out = append(out, fmt.Sprintf("  %-18s %6d %10.4f %10.4f %6.1f%%", layer, f.spans[layer],
			f.busy[layer].Seconds(), f.self[layer].Seconds(), share))
	}
	return out
}
