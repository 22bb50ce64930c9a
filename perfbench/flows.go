package main

import (
	"context"
	"fmt"
	"time"

	"selectivemt"
	"selectivemt/internal/core"
	"selectivemt/internal/gen"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
)

// circuitSeed generates the flows' circuits. It is fixed rather than
// drawn from --seed: whether Improved-SMT aborts on a generated circuit
// depends on the circuit, and the failed share of every run must not
// depend on the seed. --seed draws the equivalence check's input vectors.
const circuitSeed = 20050307

// table1Circuits are table1-scale's two circuits: Improved-SMT completes
// on the first and aborts on the crosstalk rule on the second. The larger
// circuit goes first so that its jobs start first.
func table1Circuits() []gen.CircuitSpec {
	return []gen.CircuitSpec{gen.Large(12_000, circuitSeed), gen.Large(10_000, circuitSeed)}
}

// signoffCircuit is dualvth-signoff's circuit.
func signoffCircuit() gen.CircuitSpec { return gen.Large(25_000, circuitSeed) }

// setupReps is how many times a flow part sets up (library
// characterization and circuit generation), so that setup_s is a median
// and not one sample. The last set-up's environment runs the round.
const setupReps = 5

// flowSetup characterizes a fresh environment and generates the
// workload's circuits setupReps times, recording each time, and returns
// the last ones.
func flowSetup[T any](b *bench, circuits func() T) (*selectivemt.Environment, T, error) {
	var env *selectivemt.Environment
	var cs T
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if env, err = selectivemt.NewEnvironment(); err != nil {
			return nil, cs, err
		}
		cs = circuits()
		b.Setups = append(b.Setups, time.Since(t0).Seconds())
	}
	return env, cs, nil
}

// endRound records a round's wall-clock and the compile-cache and
// analysis-cache traffic it caused.
func (b *bench) endRound(env *selectivemt.Environment, log roundLog, sta0 sta.CacheStats, wall float64) {
	log.log(b, wall)
	b.Rounds++
	b.Walls = append(b.Walls, wall)
	b.Busy += wall
	sta1 := sta.CompileCacheStats()
	b.Tally.STAHits += sta1.Hits - sta0.Hits
	b.Tally.STAMisses += sta1.Misses - sta0.Misses
	b.Tally.CompileCacheMB = float64(sta1.Bytes) / (1 << 20)
	hits, misses, _ := env.CacheStats()
	b.Tally.CacheHits += hits
	b.Tally.CacheMisses += misses
}

// resultCounters adds a finished technique's own counters to the
// per-layer metrics.
func (b *bench) resultCounters(r *selectivemt.TechniqueResult) {
	for _, ar := range r.AssignReports {
		b.addLayer("assign.passes", float64(ar.Passes))
		b.addLayer("assign.score_s", float64(ar.Phases.ScoreNs)/1e9)
		b.addLayer("assign.retime_s", float64(ar.Phases.RetimeNs)/1e9)
		b.addLayer("assign.unwind_s", float64(ar.Phases.UnwindNs)/1e9)
		b.Tally.Commits += ar.Commits
		b.Tally.Reverts += ar.Reverts
	}
	b.addLayer("eco.hold_buffers", float64(r.Counts.HoldBuffers))
	b.addLayer("vgnd.holders", float64(r.HoldersInserted))
	b.addLayer("vgnd.clusters", float64(len(r.Clusters)))
	b.addLayer("vgnd.reopt_resized", float64(r.ReoptResized))
	b.addLayer("core.mte_buffers", float64(r.Counts.MTEBuffers))
	if r.CornerReport != nil {
		b.addLayer("mcmm.hold_buffers", float64(r.CornerReport.HoldBuffers))
	}
}

// replayPrepare re-runs the layers core.PrepareBase calls, one timed
// call each: synthesis, placement and the min-period probe.
func (b *bench) replayPrepare(env *selectivemt.Environment, m *gen.Module, parent int) error {
	cfg := env.NewConfig()
	var d *netlist.Design
	if err := b.timed("synth.map_s", parent, func() (err error) {
		d, err = synth.Map(m, env.Lib, synth.DefaultOptions())
		return err
	}); err != nil {
		return err
	}
	if err := b.timed("place.place_s", parent, func() error {
		_, err := place.Place(d, cfg.PlaceOpts)
		return err
	}); err != nil {
		return err
	}
	probe := preRouteConfig(env, 1000)
	return b.timed("sta.min_period_s", parent, func() error {
		_, err := sta.MinPeriod(d, probe)
		return err
	})
}

// replayFinal re-runs, on a finished design, the uncached analyses the
// flow's measure stage makes: activity simulation, post-route timing and
// standby leakage.
func (b *bench) replayFinal(env *selectivemt.Environment, r *selectivemt.TechniqueResult, parent int) error {
	cfg := env.NewConfig()
	if err := b.timed("sim.activity_s", parent, func() error {
		_, err := sim.EstimateActivity(r.Design, cfg.ActivityCycles, cfg.Seed)
		return err
	}); err != nil {
		return err
	}
	post := preRouteConfig(env, r.ClockPeriodNs)
	post.Extractor = &parasitics.SteinerExtractor{Proc: env.Proc,
		TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }}
	if r.CTS != nil {
		post.ClockArrival = r.CTS.Arrival
	}
	if err := b.timed("sta.analyze_s", parent, func() error {
		_, err := sta.Analyze(r.Design, post)
		return err
	}); err != nil {
		return err
	}
	opts := power.StandbyOptions{Inputs: cfg.StandbyInputs}
	if r.Technique != "Dual-Vth" {
		opts.Gated, opts.HolderOn = core.IsGatedMT, core.HolderOn
	}
	return b.timed("power.standby_s", parent, func() error {
		_, err := power.Standby(r.Design, opts)
		return err
	})
}

// preRouteConfig is the flow's timing setup with the pre-route wire
// estimate (the min-period probe's and the assignment's view).
func preRouteConfig(env *selectivemt.Environment, periodNs float64) sta.Config {
	return sta.Config{
		ClockPeriodNs: periodNs,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		InputDelayNs:  0.1,
		Extractor:     &parasitics.EstimateExtractor{Proc: env.Proc},
	}
}

// checkResult runs the checks every finished technique gets: clean
// typical-corner timing (a failure here is a failed operation) and, in a
// run's first part, cycle-by-cycle equivalence with the module the flow
// started from. Later parts produce the same designs, which merge checks
// through their leakage and area.
func (b *bench) checkResult(op string, m *gen.Module, r *selectivemt.TechniqueResult, seed int64) {
	if msg := timingFailure(r.WNSNs, r.WorstHoldNs); msg != "" {
		b.fail(op, msg)
	}
	if b.part > 0 {
		return
	}
	if err := checkEquivalent(m, r.Design, equivalenceCycles(m), seed); err != nil {
		b.problem("%s: %v", op, err)
	}
}

// batchRecorder turns RunBatch progress events into job outcomes,
// latencies, queue waits and (traced) stage spans.
type batchRecorder struct {
	b        *bench
	parent   int
	prepDone map[int]time.Time
	jobs     map[string]*batchJob
}

type batchJob struct {
	span    int
	state   selectivemt.JobState
	err     error
	elapsed time.Duration
}

func newBatchRecorder(b *bench, parent int) *batchRecorder {
	return &batchRecorder{b: b, parent: parent, prepDone: map[int]time.Time{}, jobs: map[string]*batchJob{}}
}

func jobKey(index int, task string) string { return fmt.Sprintf("%d/%s", index, task) }

func (r *batchRecorder) observe(ev selectivemt.BatchEvent) {
	now := time.Now()
	key := jobKey(ev.Index, ev.Task)
	j := r.jobs[key]
	if j == nil {
		j = &batchJob{}
		r.jobs[key] = j
	}
	if ev.Stage != "" {
		if ev.State == selectivemt.JobDone {
			if layer, ok := stageLayer[ev.Stage]; ok {
				r.b.addLayer(layer, ev.Elapsed.Seconds())
			}
			r.b.trace.add(ev.Stage, j.span, now.Add(-ev.Elapsed), now)
		}
		return
	}
	switch ev.State {
	case selectivemt.JobRunning:
		name := ev.Circuit + "/" + ev.Task
		j.span = r.b.trace.open(name, r.parent)
		if ev.Task != "prepare" {
			if ready, ok := r.prepDone[ev.Index]; ok {
				r.b.addLayer("engine.job_wait_s", now.Sub(ready).Seconds())
			}
		}
	default:
		j.state, j.err, j.elapsed = ev.State, ev.Err, ev.Elapsed
		r.b.trace.close(j.span)
		if ev.Task == "prepare" {
			r.prepDone[ev.Index] = now
			r.b.addLayer("core.prepare_s", ev.Elapsed.Seconds())
		}
	}
}

// runTable1Scale runs one round of the paper's Table 1 (Dual-Vth,
// Conventional-SMT and Improved-SMT) through Environment.RunBatch with 2
// workers on the table1Circuits.
func runTable1Scale(b *bench) error {
	env, specs, err := flowSetup(b, table1Circuits)
	if err != nil {
		return err
	}
	techniques := []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"}
	span := b.trace.open(fmt.Sprintf("part %d", b.part), 0)
	log := startRoundLog()
	rec := newBatchRecorder(b, span)
	sta0 := sta.CompileCacheStats()
	t0 := time.Now()
	comps, _ := env.RunBatch(specs, selectivemt.BatchOptions{Jobs: 2, Progress: rec.observe})
	wall := time.Since(t0).Seconds()
	b.trace.close(span)
	b.endRound(env, log, sta0, wall)

	for i, spec := range specs {
		for _, t := range techniques {
			b.Attempted++
			op := spec.Module.Name + "/" + t
			j := rec.jobs[jobKey(i, t)]
			switch {
			case j == nil:
				b.problem("%s: no job outcome reported", op)
			case j.state == selectivemt.JobFailed:
				b.fail(op, j.err.Error())
			case j.state != selectivemt.JobDone:
				b.fail(op, fmt.Sprintf("job %s", j.state))
			default:
				b.JobLat = append(b.JobLat, j.elapsed.Seconds())
			}
		}
		c := comps[i]
		if c == nil {
			continue // a technique failed; RunBatch keeps no result for the circuit
		}
		if err := checkTable1Order(c); err != nil {
			b.problem("%v", err)
		}
		for k, r := range []*selectivemt.TechniqueResult{c.Dual, c.Conv, c.Improved} {
			b.checkResult(spec.Module.Name+"/"+r.Technique, spec.Module, r, b.seed+int64(i*4+k))
			b.resultCounters(r)
		}
	}
	b.Completed = b.Attempted - len(b.Failures)
	if c := comps[0]; c != nil {
		b.Leak, b.Area = c.Improved.StandbyLeakMW, c.Improved.AreaUm2
	} else {
		b.problem("%s: Improved-SMT did not complete; leak_mw and area_um2 are taken from it",
			specs[0].Module.Name)
	}
	if b.trace == nil {
		return nil
	}
	replay := b.trace.open("replay", span)
	defer b.trace.close(replay)
	for _, spec := range specs {
		if err := b.replayPrepare(env, spec.Module, replay); err != nil {
			return err
		}
	}
	for _, c := range comps {
		if c == nil {
			continue
		}
		for _, r := range []*selectivemt.TechniqueResult{c.Dual, c.Conv, c.Improved} {
			if err := b.replayFinal(env, r, replay); err != nil {
				return err
			}
		}
	}
	return nil
}

// runDualVthSignoff runs one Dual-Vth flow on signoffCircuit with the
// sensitivity strategy, 8 timing partitions and sign-off at all four
// corners.
func runDualVthSignoff(b *bench) error {
	env, spec, err := flowSetup(b, signoffCircuit)
	if err != nil {
		return err
	}
	cfg := env.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	cfg.Strategy = "sensitivity"
	cfg.Partitions = 8
	cfg.Corners = selectivemt.AllCorners()
	op := spec.Module.Name + "/Dual-Vth"

	span := b.trace.open(fmt.Sprintf("part %d", b.part), 0)
	log := startRoundLog()
	sta0 := sta.CompileCacheStats()
	t0 := time.Now()
	var base *selectivemt.Design
	err = b.timed("core.prepare_s", span, func() (err error) {
		base, err = env.Synthesize(spec, cfg)
		return err
	})
	var res *selectivemt.TechniqueResult
	var flowTime time.Duration
	if err == nil {
		job := b.trace.open(op, span)
		t1 := time.Now()
		res, err = selectivemt.RunPipeline(context.Background(), "Dual-Vth", base, cfg,
			func(ev selectivemt.StageEvent) {
				if ev.State != selectivemt.StageDone {
					return
				}
				if layer, ok := stageLayer[ev.Stage]; ok {
					b.addLayer(layer, ev.Elapsed.Seconds())
				}
				now := time.Now()
				b.trace.add(ev.Stage, job, now.Add(-ev.Elapsed), now)
			})
		flowTime = time.Since(t1)
		b.trace.close(job)
	}
	wall := time.Since(t0).Seconds()
	b.trace.close(span)
	b.endRound(env, log, sta0, wall)

	b.Attempted++
	if err != nil {
		b.fail(op, err.Error())
		return nil
	}
	b.JobLat = append(b.JobLat, flowTime.Seconds())
	b.checkResult(op, spec.Module, res, b.seed)
	if err := checkCorners(res.CornerReport); err != nil {
		b.problem("%s: %v", op, err)
	}
	b.Completed = b.Attempted - len(b.Failures)
	b.Leak, b.Area = res.StandbyLeakMW, res.AreaUm2
	b.resultCounters(res)
	if b.trace == nil {
		return nil
	}
	replay := b.trace.open("replay", span)
	defer b.trace.close(replay)
	if err := b.replayPrepare(env, spec.Module, replay); err != nil {
		return err
	}
	return b.replayFinal(env, res, replay)
}
