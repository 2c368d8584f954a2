package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/ansor"
	"repro/internal/measure"
	"repro/internal/registry"
	"repro/internal/regserver"
	"repro/internal/te"
)

// The serve-best workload's input.
const (
	// fillTrials is the per-task budget that fills the store in set-up.
	fillTrials = 16
	// fillSeed tunes the fill. It is fixed, so every set-up fills the
	// same records; the run's seed picks, per set-up, the held-back
	// records and their order. At this budget a network's tuned latency
	// varies 2-3x with the tuning seed, which would swamp net_latency_us.
	fillSeed = 1
	// heldBackFrac is the share of fill records held back from the
	// initial store and published by the writer during the timed phase.
	heldBackFrac = 0.25
	// publishRate is the open-loop writer's fixed rate, records/s.
	publishRate = 100
	// readerPeriod paces the closed-loop reader: an apply starts when
	// the previous one has returned and no earlier than readerPeriod
	// after the previous start. The number of applies in a run is then
	// fixed, so memory that grows per apply grows by a steady amount.
	readerPeriod = 20 * time.Millisecond
	// serveSegments is how many timed segments --seconds is split into.
	// Each has a set-up of its own just before it, so the set-ups are
	// spread over the run like the tuning workloads' and setup_s, their
	// median, sees the host load the segments see.
	serveSegments = 5
)

// serveNetworks are the five built-in networks the reader cycles over.
var serveNetworks = []string{"resnet-50", "mobilenet-v2", "3d-resnet-18", "dcgan", "bert"}

// serveEnv is what serve-best sets up: a durable store filled by
// tuning, served on a loopback port, and the records held back from it.
type serveEnv struct {
	reg     *regEnv
	initial []measure.Record
	held    []measure.Record
	// latency is mobilenet-v2's latency as served from the initial
	// store, before any held-back record is published.
	latency float64
}

// newServeEnv fills a fresh store, holding back a share of the records
// drawn from rng, and serves it.
func newServeEnv(r *run, rng *rand.Rand, specs []*netSpec, target ansor.Target) (*serveEnv, time.Duration, error) {
	dir, err := r.subdir("serve")
	if err != nil {
		return nil, 0, err
	}
	var all []measure.Record
	for i, spec := range specs {
		log := filepath.Join(dir, fmt.Sprintf("fill-%d.log", i))
		_, err := ansor.TuneNetwork(spec.net, target, ansor.TuningOptions{
			Trials: fillTrials, MeasuresPerRound: fillTrials, Seed: fillSeed, RecordTo: log})
		if err != nil {
			return nil, 0, fmt.Errorf("fill %s: %w", spec.net.Name, err)
		}
		l, err := measure.LoadFile(log)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, l.Records...)
	}
	// A log interleaves concurrently tuned tasks in no fixed order; a
	// task's own records are in measurement order. Group by key so the
	// split below is the same on every run. Every key keeps its first
	// record, so each task has an answer from the start; of the rest a
	// seeded share is held back.
	sort.SliceStable(all, func(i, j int) bool {
		a, b := keyOf(all[i]), keyOf(all[j])
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.DAG < b.DAG
	})
	env := &serveEnv{}
	seen := map[registry.Key]bool{}
	for _, rec := range all {
		k := keyOf(rec)
		if seen[k] && rng.Float64() < heldBackFrac {
			env.held = append(env.held, rec)
			continue
		}
		seen[k] = true
		env.initial = append(env.initial, rec)
	}
	if len(env.held) == 0 {
		return nil, 0, fmt.Errorf("no records held back")
	}
	rng.Shuffle(len(env.held), func(i, j int) { env.held[i], env.held[j] = env.held[j], env.held[i] })
	reg, took, err := openRegistry(filepath.Join(dir, "store.log"))
	if err != nil {
		return nil, 0, err
	}
	env.reg = reg
	if _, err := regserver.NewClient(reg.url).AddLog(&measure.Log{Records: env.initial}); err != nil {
		reg.close()
		return nil, 0, fmt.Errorf("initial publish: %w", err)
	}
	for i, spec := range specs {
		res, err := applyBest(spec, target, reg.url)
		if err != nil {
			reg.close()
			return nil, 0, fmt.Errorf("warm-up apply: %w", err)
		}
		if serveNetworks[i] == tuneNetwork {
			env.latency = res.Latency
		}
	}
	return env, took, nil
}

func applyBest(spec *netSpec, target ansor.Target, url string) (ansor.NetworkResult, error) {
	return ansor.TuneNetwork(spec.net, target, ansor.TuningOptions{ApplyHistoryBest: url})
}

// applyTrace is what one traced apply spent per layer.
type applyTrace struct {
	lookups, replays []float64 // seconds, one per task
}

// tracedApply is the apply path of ansor.TuneNetwork rebuilt from the
// same public calls, with a span around each per-key lookup and replay.
func tracedApply(spec *netSpec, target ansor.Target, url string) (ansor.NetworkResult, map[string]measure.Record, applyTrace, error) {
	cl := regserver.NewClient(url)
	res := ansor.NetworkResult{TaskLatencies: map[string]float64{}}
	recs := map[string]measure.Record{}
	var tr applyTrace
	for _, task := range spec.net.Tasks {
		dag := task.Build()
		t0 := time.Now()
		rec, ok, err := cl.BestFor(task.Name, target.Machine.Name, dag)
		tr.lookups = append(tr.lookups, time.Since(t0).Seconds())
		if err != nil {
			return res, nil, tr, err
		}
		if !ok {
			return res, nil, tr, fmt.Errorf("no schedule for %s", task.Name)
		}
		t0 = time.Now()
		_, err = rec.Replay(dag)
		tr.replays = append(tr.replays, time.Since(t0).Seconds())
		if err != nil {
			return res, nil, tr, fmt.Errorf("replay %s: %w", task.Name, err)
		}
		recs[task.Name] = rec
		res.TaskLatencies[task.Name] = rec.Seconds
		res.Latency += float64(task.Weight) * rec.Seconds
	}
	return res, recs, tr, nil
}

// applyCall is one timed whole-network apply.
type applyCall struct {
	spec   *netSpec
	call   span
	res    ansor.NetworkResult
	traced bool
}

// segment is what one timed segment of serve-best measured.
type segment struct {
	calls            []applyCall
	lookups, replays []float64 // traced applies, seconds per task
	writes           []publish // the timed writes, then the rest of the first pass
	dues             []time.Time
	cpu              float64 // process CPU seconds of the timed part
	before, after    regserver.Metrics
}

// runSegment serves env for length: one paced closed-loop reader beside
// one open-loop writer. The writer publishes the held-back records
// round-robin, one every 1/publishRate seconds from the segment's
// start, however late the previous one finished.
func runSegment(r *run, env *serveEnv, specs []*netSpec, target ansor.Target, length time.Duration) (*segment, error) {
	seg := &segment{}
	var err error
	if seg.before, err = env.reg.metrics(); err != nil {
		return nil, err
	}
	start, cpu0 := time.Now(), cpuSeconds()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := regserver.NewClient(env.reg.url)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(float64(i) / publishRate * float64(time.Second)))
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			rec := env.held[i%len(env.held)]
			s := time.Now()
			_, err := cl.Add(rec)
			seg.writes = append(seg.writes, publish{rec: rec, start: s, end: time.Now(), err: err})
			seg.dues = append(seg.dues, due)
		}
	}()
	for k := 0; ; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * readerPeriod)))
		if !time.Now().Before(deadline) {
			break
		}
		c := applyCall{spec: specs[k%len(specs)], traced: r.trace && k%2 == 0}
		t0 := time.Now()
		var err error
		if c.traced {
			var tr applyTrace
			c.res, _, tr, err = tracedApply(c.spec, target, env.reg.url)
			seg.lookups = append(seg.lookups, tr.lookups...)
			seg.replays = append(seg.replays, tr.replays...)
		} else {
			c.res, err = applyBest(c.spec, target, env.reg.url)
		}
		c.call = span{t0, time.Now()}
		r.count("operation", err)
		if err == nil {
			seg.calls = append(seg.calls, c)
		}
	}
	wg.Wait()
	seg.cpu = cpuSeconds() - cpu0
	for _, w := range seg.writes {
		r.count("operation", w.err)
	}
	// Finish the first pass if the segment was too short for it, so the
	// final checks see every record however fast the host ran.
	cl := regserver.NewClient(env.reg.url)
	for i := len(seg.writes); i < len(env.held); i++ {
		s := time.Now()
		_, err := cl.Add(env.held[i])
		seg.writes = append(seg.writes, publish{rec: env.held[i], start: s, end: time.Now(), err: err})
		r.count("operation", err)
	}
	if seg.after, err = env.reg.metrics(); err != nil {
		return nil, err
	}
	return seg, nil
}

func serveWorkload(r *run) error {
	target := ansor.TargetIntelCPU(false)
	var specs []*netSpec
	for _, n := range serveNetworks {
		s, err := loadNetwork(n)
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	// Each set-up holds back its own draw from the seeded stream. One
	// draw's served latency jumps when it holds back a heavy task's best
	// record, so net_latency_us is the median over the set-ups.
	rng := rand.New(rand.NewSource(r.seed))
	var env *serveEnv
	var setups setupTimer
	var opens, latencies []float64
	var segs []*segment
	for i := 0; i < serveSegments; i++ {
		var took time.Duration
		if err := setups.measure(func() (err error) {
			env, took, err = newServeEnv(r, rng, specs, target)
			return err
		}); err != nil {
			return err
		}
		opens = append(opens, took.Seconds())
		latencies = append(latencies, env.latency)
		seg, err := runSegment(r, env, specs, target, r.seconds/serveSegments)
		if err != nil {
			env.reg.close()
			return err
		}
		checkAnswers(r, seg.calls, env, seg.writes, target.Machine.Name)
		if err := finalApply(r, specs, target, env); err != nil {
			return err
		}
		segs = append(segs, seg)
	}
	setups.report(r)

	var plain, traced, lookups, replays, pubMS, lateMS []float64
	var programs, applies, timed int
	var cpu float64
	var reg regserver.Metrics // summed deltas over the segments
	for _, seg := range segs {
		for _, c := range seg.calls {
			if c.traced {
				traced = append(traced, c.call.dur().Seconds())
				continue
			}
			plain = append(plain, c.call.dur().Seconds())
			programs += len(c.res.TaskLatencies)
		}
		for i, due := range seg.dues {
			w := seg.writes[i]
			pubMS = append(pubMS, 1000*w.end.Sub(due).Seconds())
			lateMS = append(lateMS, 1000*w.start.Sub(due).Seconds())
		}
		lookups = append(lookups, seg.lookups...)
		replays = append(replays, seg.replays...)
		applies += len(seg.calls)
		timed += len(seg.dues)
		cpu += seg.cpu
		addRegistry(&reg, seg.before, seg.after)
	}
	if len(plain) == 0 {
		return fmt.Errorf("no untraced apply completed")
	}
	r.set("call_cpu_ms", 1000*cpu/float64(applies))
	r.set("ansor.call_wall_ms", 1000*median(plain))
	r.set("ansor.programs_per_s", float64(programs)/sum(plain))
	r.set("net_latency_us", median(latencies)*1e6)
	r.logf("  served mobilenet-v2 latency per set-up: %v us", roundAll(scale(latencies, 1e6), 3))
	r.logf("  applies: %d untraced, %d traced over %d networks, %.3f CPU s in all; publishes: %d timed at %d/s; %d segments",
		len(plain), len(traced), len(specs), cpu, timed, publishRate, len(segs))
	if !r.trace {
		return nil
	}
	r.set("ansor.apply_p99_ms", 1000*quantile(plain, 0.99))
	r.set("regserver.lookup_p50_ms", 1000*quantile(lookups, 0.5))
	r.set("regserver.lookup_p99_ms", 1000*quantile(lookups, 0.99))
	r.set("regserver.publish_p50_ms", quantile(pubMS, 0.5))
	r.set("regserver.publish_p99_ms", quantile(pubMS, 0.99))
	r.set("regserver.publish_late_p99_ms", quantile(lateMS, 0.99))
	setRegistry(r, reg)
	r.set("regserver.open_s", median(opens))
	r.set("obs.trace_overhead_frac", median(traced)/median(plain)-1)
	r.logf("  samples: %d applies, %d lookups, %d timed publishes", len(plain), len(lookups), len(pubMS))
	r.report = append(r.report, applyTable(traced, lookups, replays)...)
	r.zero("xgb.train_s", "xgb.refits", "xgb.boosts", "xgb.score_s", "evo.search_s",
		"anno.sample_s", "measure.batch_s", "measure.batch_p99_ms", "sched.rounds", "sched.waves",
		"sched.round_p50_ms", "sched.round_p99_ms", "sched.trials_to_95pct", "sketch.generate_s",
		"obs.events", "obs.events_dropped")
	r.zero(fleetLayers[:5]...)
	fill := append(append([]measure.Record(nil), env.initial...), env.held...)
	dags := map[string]*te.DAG{}
	for _, s := range specs {
		for task, d := range s.dags {
			dags[task] = d
		}
	}
	if err := probePrograms(r, fill, dags, target.Machine); err != nil {
		return err
	}
	return probeDAGs(r, specs...)
}

// checkAnswers checks every timed apply's answers against the write
// history, one check per call.
func checkAnswers(r *run, calls []applyCall, env *serveEnv, writes []publish, targetName string) {
	initial := bestByKey(env.initial)
	byKey := map[registry.Key][]publish{}
	for _, w := range writes {
		byKey[keyOf(w.rec)] = append(byKey[keyOf(w.rec)], w)
	}
	for _, c := range calls {
		var err error
		for _, task := range c.spec.tasks {
			k := registry.Key{Workload: task, Target: targetName,
				DAG: measure.DAGFingerprint(c.spec.dags[task])}
			a := answer{key: k, seconds: c.res.TaskLatencies[task], call: c.call}
			if err = checkAnswer(a, initial, byKey[k]); err != nil {
				break
			}
		}
		r.count("check answer-linearizable", err)
	}
}

// finalApply applies every network once more after the last publish,
// through ansor.TuneNetwork and through the traced path, then closes the
// server, loads its store on its own with registry.LoadFile, and checks
// that the store holds the best of every record ever offered and that
// the final applies served exactly those records.
func finalApply(r *run, specs []*netSpec, target ansor.Target, env *serveEnv) error {
	served := map[string]map[string]measure.Record{}
	for _, spec := range specs {
		res, err := applyBest(spec, target, env.reg.url)
		r.count("operation", err)
		if err != nil {
			continue
		}
		tres, recs, _, err := tracedApply(spec, target, env.reg.url)
		r.count("operation", err)
		if err == nil {
			err = sameResult(res, tres)
		}
		r.count("check apply-paths-agree", err)
		served[spec.net.Name] = recs
	}
	if err := env.reg.close(); err != nil {
		return err
	}
	store, err := registry.LoadFile(env.reg.store)
	if err != nil {
		return err
	}
	want := bestByKey(env.initial, env.held)
	r.count("check store-bests", checkStoreBests(store, want))
	for _, spec := range specs {
		var err error
		for task, rec := range served[spec.net.Name] {
			best, ok := store.Lookup(keyOf(rec))
			if !ok || best.Seconds != rec.Seconds || !bytes.Equal(best.Steps, rec.Steps) {
				err = fmt.Errorf("%s task %s: served %v s, store best %v s", spec.net.Name, task, rec.Seconds, best.Seconds)
				break
			}
		}
		r.count("check final-answers", err)
	}
	return nil
}

// applyTable renders the self-time table of the traced applies: the
// lookups and replays run one after another inside each apply, so the
// apply's self time is what is left (building DAGs, the client).
func applyTable(applies, lookups, replays []float64) []string {
	total := sum(applies)
	rows := []struct {
		layer      string
		n          int
		busy, self float64
	}{
		{"ansor.apply", len(applies), total, total - sum(lookups) - sum(replays)},
		{"regserver.lookup", len(lookups), sum(lookups), sum(lookups)},
		{"measure.replay", len(replays), sum(replays), sum(replays)},
	}
	out := []string{"  self time, traced applies:",
		fmt.Sprintf("  %-18s %6s %10s %10s %7s", "layer", "spans", "busy_s", "self_s", "self%")}
	for _, row := range rows {
		out = append(out, fmt.Sprintf("  %-18s %6d %10.4f %10.4f %6.1f%%", row.layer, row.n,
			row.busy, row.self, 100*ratio(row.self, total)))
	}
	return out
}

// addRegistry adds the registry server's counters between two
// /metrics reads to total; store_bytes is the later read's.
func addRegistry(total *regserver.Metrics, before, after regserver.Metrics) {
	total.RecordsOffered += after.RecordsOffered - before.RecordsOffered
	total.RecordsImproved += after.RecordsImproved - before.RecordsImproved
	total.PublishErrors += after.PublishErrors - before.PublishErrors
	total.BestHits += after.BestHits - before.BestHits
	total.BestNotModified += after.BestNotModified - before.BestNotModified
	total.BestMisses += after.BestMisses - before.BestMisses
	total.StoreBytes = after.StoreBytes
}

// setRegistry reports the registry server's counters m, deltas over
// the measured calls or segments.
func setRegistry(r *run, m regserver.Metrics) {
	offered := float64(m.RecordsOffered)
	hits := float64(m.BestHits)
	notMod := float64(m.BestNotModified)
	served := hits + notMod + float64(m.BestMisses)
	r.set("regserver.records_offered", offered)
	r.set("regserver.improve_ratio", ratio(float64(m.RecordsImproved), offered))
	r.set("regserver.publish_errors", float64(m.PublishErrors))
	r.set("regserver.store_bytes", float64(m.StoreBytes))
	r.set("regserver.best_hit_ratio", ratio(hits, served))
	r.set("regserver.best_not_modified", notMod)
}
