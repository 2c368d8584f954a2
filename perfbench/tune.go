package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/ansor"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/regserver"
	"repro/internal/sketch"
)

// The tuning workloads' input: the ROADMAP baseline budget on
// mobilenet-v2, batch 1, on the Intel CPU model.
const (
	tuneNetwork  = "mobilenet-v2"
	tuneTrials   = 128 // per task
	tunePerRound = 64
	// tuneNoise is the measurement noise the tunes run with and the
	// band the log-bests check allows.
	tuneNoise = 0.02
	// warmTrials is the budget of the warm-up tune in set-up, which
	// lets lazy initialisation and heap growth finish before timing.
	// Its seed is fixed, so every run sets up with the same work.
	warmTrials = 32
	warmSeed   = 1
	// minSetups is the fewest set-ups, and so timed calls, a tuning run
	// makes however short --seconds is; setup_s is their median.
	minSetups = 3
)

// tuneState is what a tuning workload keeps across its calls.
type tuneState struct {
	r        *run
	spec     *netSpec
	target   ansor.Target
	useFleet bool
	openS    []float64 // regserver.Open per call (tune-fleet)
	lastReg  lastCall
	callSeq  int
	fileDrop int64
}

// tuneEnv is one set-up: the sketches generated over every task DAG,
// on tune-fleet a fresh loopback fleet, and a warm-up tune through it.
type tuneEnv struct {
	*tuneState
	fleet   *fleetEnv // nil on tune-local
	sketchS float64
}

// lastCall is what a tune-fleet call leaves behind for the checks: its
// log, its store, and the registry server's counters before it closed.
type lastCall struct {
	log, store string
	metrics    regserver.Metrics
}

func newTuneEnv(st *tuneState) (*tuneEnv, error) {
	env := &tuneEnv{tuneState: st}
	t0 := time.Now()
	gen := sketch.NewGenerator(st.target.Space)
	for _, task := range st.spec.tasks {
		if _, err := gen.Generate(st.spec.dags[task]); err != nil {
			return nil, fmt.Errorf("sketch %s: %w", task, err)
		}
	}
	env.sketchS = time.Since(t0).Seconds()
	if st.useFleet {
		f, err := startFleet(st.target, runtime.NumCPU())
		if err != nil {
			return nil, err
		}
		env.fleet = f
	}
	warm := ansor.TuningOptions{Trials: warmTrials, MeasuresPerRound: warmTrials,
		NoiseStd: tuneNoise, Seed: warmSeed}
	c, err := env.prepare(warm, false)
	if err == nil {
		_, err = ansor.TuneNetwork(st.spec.net, st.target, c.opts)
		if cerr := c.finish(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		env.close()
		return nil, fmt.Errorf("warm-up tune: %w", err)
	}
	return env, nil
}

func (env *tuneEnv) close() {
	if env.fleet != nil {
		env.fleet.stop()
	}
}

// tuneOutcome is what one timed call returned and cost.
type tuneOutcome struct {
	res  ansor.NetworkResult
	call span
	cpu  float64         // process CPU seconds
	mem  *obs.MemorySink // traced calls: the events
}

// timedCall runs one timed tune on env, adding the fleet traffic it
// caused to fleetTotal.
func (env *tuneEnv) timedCall(opts ansor.TuningOptions, traced bool, fleetTotal *fleetSnapshot) (tuneOutcome, error) {
	var before fleetSnapshot
	if env.fleet != nil {
		var err error
		if before, err = env.fleetSnapshot(); err != nil {
			return tuneOutcome{}, err
		}
	}
	c, err := env.prepare(opts, traced)
	if err != nil {
		return tuneOutcome{}, err
	}
	t0, c0 := time.Now(), cpuSeconds()
	res, err := ansor.TuneNetwork(env.spec.net, env.target, c.opts)
	out := tuneOutcome{res: res, call: span{t0, time.Now()}, cpu: cpuSeconds() - c0, mem: c.mem}
	if ferr := c.finish(); err == nil {
		err = ferr
	}
	if err == nil && env.fleet != nil {
		var after fleetSnapshot
		if after, err = env.fleetSnapshot(); err == nil {
			fleetTotal.add(after.minus(before))
		}
	}
	return out, err
}

// tuneCall is one prepared TuneNetwork call.
type tuneCall struct {
	opts ansor.TuningOptions
	mem  *obs.MemorySink // traced calls
	file obs.Sink        // traced tune-fleet calls: the event file
	reg  *regEnv
	env  *tuneEnv
}

// prepare readies one call. On tune-fleet it gives the call a fresh
// tuning log, event file and durable registry store, so every timed
// tune does the same registry work; measurement goes to the fleet.
func (env *tuneEnv) prepare(opts ansor.TuningOptions, traced bool) (*tuneCall, error) {
	c := &tuneCall{opts: opts, env: env}
	if traced {
		c.mem = &obs.MemorySink{}
	}
	if env.fleet == nil {
		if traced {
			c.opts.Observer = obs.New(c.mem, obs.NewRegistry())
		}
		return c, nil
	}
	dir, err := env.r.subdir(fmt.Sprintf("call-%d", env.callSeq%2))
	env.callSeq++
	if err != nil {
		return nil, err
	}
	reg, took, err := openRegistry(filepath.Join(dir, "store.log"))
	if err != nil {
		return nil, err
	}
	env.openS = append(env.openS, took.Seconds())
	c.reg = reg
	c.opts.FleetURL = env.fleet.url
	c.opts.RegistryURL = reg.url
	c.opts.RecordTo = filepath.Join(dir, "tune.log")
	events := filepath.Join(dir, "events.jsonl")
	if !traced {
		c.opts.EventsTo = events
		return c, nil
	}
	file, err := obs.OpenSink(events)
	if err != nil {
		reg.close()
		return nil, err
	}
	c.file = file
	c.opts.Observer = obs.New(teeSink{mem: c.mem, file: file}, obs.NewRegistry())
	return c, nil
}

// finish releases what prepare opened, reading the registry server's
// counters first.
func (c *tuneCall) finish() error {
	if c.reg == nil {
		return nil
	}
	var err error
	if c.file != nil {
		err = c.file.Close()
		c.env.fileDrop += dropped(c.file)
	}
	m, merr := c.reg.metrics()
	if err == nil {
		err = merr
	}
	if cerr := c.reg.close(); err == nil {
		err = cerr
	}
	c.env.lastReg = lastCall{log: c.opts.RecordTo, store: c.reg.store, metrics: m}
	return err
}

// tuneWorkload runs tune-local (useFleet false) or tune-fleet. Every
// timed call has a set-up of its own just before it, so the set-ups
// are spread over the run like the calls and setup_s, their median,
// sees the same host load.
func tuneWorkload(r *run, useFleet bool) error {
	spec, err := loadNetwork(tuneNetwork)
	if err != nil {
		return err
	}
	target := ansor.TargetIntelCPU(false)
	base := ansor.TuningOptions{Trials: tuneTrials, MeasuresPerRound: tunePerRound,
		NoiseStd: tuneNoise, Seed: r.seed}
	st := &tuneState{r: r, spec: spec, target: target, useFleet: useFleet}

	var setups setupTimer
	var sketchS []float64
	var fleetTotal fleetSnapshot
	var first *ansor.NetworkResult
	var plain, traced, cpu []float64 // call seconds; CPU seconds of untraced calls
	var programs int
	var folds []*tuneFold
	for i := 0; ; i++ {
		var env *tuneEnv
		if err := setups.measure(func() (err error) {
			env, err = newTuneEnv(st)
			return err
		}); err != nil {
			return err
		}
		sketchS = append(sketchS, env.sketchS)
		isTraced := r.trace && i%2 == 0
		out, err := env.timedCall(base, isTraced, &fleetTotal)
		env.close()
		r.count("operation", err)
		if err != nil {
			break
		}
		res := out.res
		if isTraced {
			traced = append(traced, out.call.dur().Seconds())
			f, ferr := foldTune(out.mem.Events(), spec.tasks, spec.weights, out.call)
			if ferr == nil && f.latency != res.Latency {
				ferr = fmt.Errorf("folded latency %v, tuned %v", f.latency, res.Latency)
			}
			r.count("check event-fold", ferr)
			if ferr == nil {
				folds = append(folds, f)
			}
		} else {
			plain = append(plain, out.call.dur().Seconds())
			cpu = append(cpu, out.cpu)
			programs += res.Trials
		}
		if first == nil {
			first = &res
		} else {
			r.count("check repeat-identical", sameResult(*first, res))
		}
		all := append(append([]float64(nil), plain...), traced...)
		if sum(all)+median(all) > r.seconds.Seconds() && len(setups.cpu) >= minSetups &&
			len(plain) > 0 && (!r.trace || len(traced) > 0) {
			break
		}
	}
	if len(plain) == 0 {
		return fmt.Errorf("no untraced tune completed")
	}
	setups.report(r)
	r.set("call_cpu_ms", 1000*median(cpu))
	r.set("ansor.call_wall_ms", 1000*median(plain))
	r.set("ansor.programs_per_s", float64(programs)/sum(plain))
	r.set("net_latency_us", first.Latency*1e6)
	r.logf("  calls: %d untraced %v s (CPU %v s), %d traced %v s; network latency %.3f us",
		len(plain), roundAll(plain, 3), roundAll(cpu, 3), len(traced), roundAll(traced, 3), first.Latency*1e6)

	if useFleet {
		st.checkFleet(first, base)
	}
	if !r.trace {
		return nil
	}
	r.set("sketch.generate_s", median(sketchS))
	r.set("obs.trace_overhead_frac", median(traced)/median(plain)-1)
	setFold(r, folds)
	r.zero(serveLayers...)
	if !useFleet {
		r.zero(fleetLayers...)
		r.zero(probeLayers...)
		return probeDAGs(r, spec)
	}
	r.set("regserver.open_s", median(st.openS))
	r.set("obs.events_dropped", float64(st.fileDrop))
	setRegistry(r, st.lastReg.metrics)
	fleetTotal.set(r)
	l, err := measure.LoadFile(st.lastReg.log)
	if err != nil {
		return err
	}
	if err := probePrograms(r, l.Records, spec.dags, target.Machine); err != nil {
		return err
	}
	return probeDAGs(r, spec)
}

// checkFleet runs the tune-fleet correctness checks: the fleet result
// is bit-identical to an in-process tune of the same seed, the last
// call's tuning log holds each task's best and re-simulates within the
// noise band, and the registry store, loaded on its own, holds the
// log's per-key bests.
func (env *tuneState) checkFleet(res *ansor.NetworkResult, base ansor.TuningOptions) {
	r := env.r
	local, err := ansor.TuneNetwork(env.spec.net, env.target, base)
	r.count("operation", err)
	if err == nil {
		r.count("check fleet-equals-local", sameResult(local, *res))
	}
	l, err := measure.LoadFile(env.lastReg.log)
	if err != nil {
		r.count("check log-bests", err)
		return
	}
	r.count("check log-bests", checkLogBests(l, env.spec.dags, env.target.Machine, base.NoiseStd, *res))
	store, err := registry.LoadFile(env.lastReg.store)
	if err == nil {
		err = checkStoreBests(store, bestByKey(l.Records))
	}
	r.count("check store-bests", err)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setFold reports the event-stream layers: medians over the traced
// calls for per-call totals, pooled samples for percentiles.
func setFold(r *run, folds []*tuneFold) {
	per := func(get func(*tuneFold) float64) float64 {
		xs := make([]float64, len(folds))
		for i, f := range folds {
			xs[i] = get(f)
		}
		return median(xs)
	}
	busy := func(layer string) float64 {
		return per(func(f *tuneFold) float64 { return f.busy[layer].Seconds() })
	}
	var measureMS, roundMS []float64
	for _, f := range folds {
		measureMS = append(measureMS, scale(f.measure, 1000)...)
		roundMS = append(roundMS, scale(f.roundDurations(), 1000)...)
	}
	r.set("xgb.train_s", busy("xgb.train"))
	r.set("xgb.score_s", busy("xgb.score"))
	r.set("evo.search_s", busy("evo.search"))
	r.set("anno.sample_s", busy("anno.sample"))
	r.set("measure.batch_s", busy("measure.batch"))
	r.set("measure.batch_p99_ms", quantile(measureMS, 0.99))
	r.set("xgb.refits", per(func(f *tuneFold) float64 { return float64(f.refits) }))
	r.set("xgb.boosts", per(func(f *tuneFold) float64 { return float64(f.boosts) }))
	r.set("sched.rounds", per(func(f *tuneFold) float64 { return float64(len(f.rounds)) }))
	r.set("sched.waves", per(func(f *tuneFold) float64 { return float64(f.waves) }))
	r.set("sched.round_p50_ms", quantile(roundMS, 0.5))
	r.set("sched.round_p99_ms", quantile(roundMS, 0.99))
	r.set("sched.trials_to_95pct", per(func(f *tuneFold) float64 { return float64(f.trialsTo95) }))
	r.set("obs.events", per(func(f *tuneFold) float64 { return float64(f.events) }))
	if len(folds) > 0 {
		r.logf("  self time, traced call 1 of %d (%d round samples):", len(folds), len(roundMS))
		r.report = append(r.report, folds[0].table()...)
	}
}

// serveLayers and fleetLayers are the layers only serve-best and only
// tune-fleet exercise (fleetLayers' first five are the fleet's own);
// the other workloads report them as 0.
var (
	serveLayers = []string{"regserver.lookup_p50_ms", "regserver.lookup_p99_ms",
		"regserver.publish_p50_ms", "regserver.publish_p99_ms", "regserver.publish_late_p99_ms",
		"ansor.apply_p99_ms"}
	fleetLayers = []string{"fleet.lease_wait_p50_ms", "fleet.lease_wait_p99_ms",
		"fleet.bytes_per_program", "fleet.lease_expiries", "fleet.duplicate_results",
		"regserver.open_s", "regserver.records_offered", "regserver.improve_ratio",
		"regserver.publish_errors", "regserver.store_bytes", "regserver.best_hit_ratio",
		"regserver.best_not_modified", "obs.events_dropped"}
	// probeLayers need the run's logged programs, which tune-local has not.
	probeLayers = []string{"measure.replay_us", "ir.lower_us", "sim.time_us", "feat.extract_us"}
)

// fleetSnapshot is the broker state the fleet layers are deltas of.
type fleetSnapshot struct {
	bytes, programs, expiries, duplicates float64
	leaseWait                             obs.HistSnapshot
}

func (env *tuneEnv) fleetSnapshot() (fleetSnapshot, error) {
	m, h, err := env.fleet.metrics()
	if err != nil {
		return fleetSnapshot{}, err
	}
	s := fleetSnapshot{bytes: float64(m.BytesIn + m.BytesOut), expiries: float64(m.LeaseExpiries),
		duplicates: float64(m.DuplicateResults), leaseWait: h}
	for _, w := range m.Workers {
		s.programs += float64(w.Completed)
	}
	return s, nil
}

// minus is the broker traffic between an earlier snapshot and s.
func (s fleetSnapshot) minus(before fleetSnapshot) fleetSnapshot {
	return fleetSnapshot{bytes: s.bytes - before.bytes, programs: s.programs - before.programs,
		expiries: s.expiries - before.expiries, duplicates: s.duplicates - before.duplicates,
		leaseWait: histDelta(s.leaseWait, before.leaseWait)}
}

// add accumulates the traffic d of one call.
func (s *fleetSnapshot) add(d fleetSnapshot) {
	s.bytes += d.bytes
	s.programs += d.programs
	s.expiries += d.expiries
	s.duplicates += d.duplicates
	s.leaseWait = histAdd(s.leaseWait, d.leaseWait)
}

// set reports the fleet layers over the timed calls.
func (s fleetSnapshot) set(r *run) {
	r.set("fleet.lease_wait_p50_ms", 1000*histQuantile(s.leaseWait, 0.5))
	r.set("fleet.lease_wait_p99_ms", 1000*histQuantile(s.leaseWait, 0.99))
	r.set("fleet.bytes_per_program", ratio(s.bytes, s.programs))
	r.set("fleet.lease_expiries", s.expiries)
	r.set("fleet.duplicate_results", s.duplicates)
}
