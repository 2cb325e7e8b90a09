package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"chainmon/internal/fleet"
	"chainmon/internal/perception"
	"chainmon/internal/telemetry"
)

const (
	// ladderFrames is the sim_observed repetition every ladder rung runs
	// (same seed, same frames); ladderReps rounds over all rungs, median
	// reported.
	ladderFrames = observedFrames
	ladderReps   = 5
	// serialVehicles is the serial VehicleArena pass: sixteen vehicles
	// per fault class, enough for a p95 with ten samples beyond it.
	serialVehicles = 208
)

// cost is a per-frame host cost: time, heap allocations and bytes.
type cost struct{ us, allocs, bytes float64 }

// measure runs fn reps times and returns the median per-frame cost.
func measure(reps int, frames float64, fn func() error) (cost, error) {
	var us, allocs, bytes []float64
	for i := 0; i < reps; i++ {
		mem := startMem()
		t0 := time.Now()
		if err := fn(); err != nil {
			return cost{}, err
		}
		d := time.Since(t0)
		a, b := mem.stop()
		us = append(us, float64(d.Nanoseconds())/1e3/frames)
		allocs = append(allocs, a/frames)
		bytes = append(bytes, b/frames)
	}
	return cost{median(us), median(allocs), median(bytes)}, nil
}

func (o *outcome) addCost(prefix string, c cost) {
	o.add(prefix+".us_per_frame", c.us, "us")
	o.add(prefix+".allocs_per_frame", c.allocs, "count")
	o.add(prefix+".bytes_per_frame", c.bytes, "B")
}

// layerSuite is the traced run. It runs all three workloads traced (spans
// written to .bench_build/spans/, read back and summed into self times),
// the named one last and right after an untraced pass of the same length,
// which gives the tracing overhead; then it measures the layer ladder, the
// fleet rungs and the sim core. Every traced run prints the same per-layer metrics
// whatever its workload; only trace.overhead_frac refers to the named one.
func layerSuite(workload string, e env) (outcome, error) {
	var out outcome
	// Each pass runs half the run's length (capped), wall_monitor the whole
	// (capped): its tails need the samples.
	envFor := func(name string) env {
		pe := e
		pe.seconds = min(e.seconds/2, 5*time.Second)
		if name == "wall_monitor" {
			pe.seconds = min(e.seconds, 10*time.Second)
		}
		return pe
	}

	epoch := time.Now()
	logs := map[string][]*spanLog{
		"fleet_chaos":  {newSpanLog("fleet_chaos", epoch)},
		"sim_observed": {newSpanLog("sim_observed", epoch)},
		"wall_monitor": {newSpanLog("wall.producer", epoch), newSpanLog("wall.monitor", epoch), newSpanLog("wall.scraper", epoch)},
	}
	var obs observedStats
	var wall wallStats
	var wallOut outcome
	tracedRun := func(name string) (outcome, error) {
		var o outcome
		var err error
		switch name {
		case "fleet_chaos":
			o, err = fleetChaos(envFor(name), logs[name][0])
		case "sim_observed":
			o, obs, err = simObserved(envFor(name), logs[name][0])
		case "wall_monitor":
			o, wall, err = wallMonitor(envFor(name), logs[name][0], logs[name][1], logs[name][2])
			wallOut = o
		}
		return o, err
	}
	order := []string{}
	for _, name := range []string{"fleet_chaos", "sim_observed", "wall_monitor"} {
		if name != workload {
			order = append(order, name)
		}
	}
	for _, name := range order {
		o, err := tracedRun(name)
		if err != nil {
			return out, err
		}
		out.broken = out.broken || o.broken
	}
	plain, err := workloads[workload](envFor(workload))
	if err != nil {
		return out, err
	}
	traced, err := tracedRun(workload)
	if err != nil {
		return out, err
	}
	out.attempted, out.failed, out.wrong = traced.attempted, traced.failed, traced.wrong
	out.broken = out.broken || traced.broken
	out.add("trace.overhead_frac", 1-metricOf(traced, "frames_per_s")/metricOf(plain, "frames_per_s"), "frac")

	var all []*spanLog
	for _, name := range append(order, workload) {
		all = append(all, logs[name]...)
	}
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.json", workload, e.seed)
	if err := writeSpans(path, all); err != nil {
		return out, err
	}
	fmt.Printf("spans written to %s\n", path)
	written, err := readSpans(path)
	if err != nil {
		return out, err
	}
	printSelfTimes(written)

	if err := ladder(e, &out); err != nil {
		return out, err
	}
	if err := fleetRungs(e, &out); err != nil {
		return out, err
	}

	// Observability layers, from the traced sim_observed pass.
	fr := float64(obs.frames)
	out.add("telemetry.stream.events_per_frame", float64(obs.streamEvents)/fr, "count")
	out.add("telemetry.stream.bytes_per_frame", float64(obs.streamBytes)/fr, "B")
	out.add("telemetry.dropped", float64(obs.dropped), "count")
	out.add("blame.feed_ns_per_event", float64(obs.feedNS)/float64(max(obs.feedN, 1)), "ns")
	out.add("adaptive.tick_us_p50", pctl(obs.tick, 0.5), "us")
	out.add("telemetry.write_metrics_us_p50", pctl(obs.metrics, 0.5), "us")
	out.add("livestats.health_us_p50", pctl(obs.health, 0.5), "us")
	out.add("blame.snapshot_us_p50", pctl(obs.snapshot, 0.5), "us")
	out.add("telemetry.read_log_s", pctl(obs.openS, 0.5), "s")
	out.add("trace.report_s", pctl(obs.reportS, 0.5), "s")
	out.add("blame.replay_s", pctl(obs.replayS, 0.5), "s")
	out.add("replay_events_per_s", pctl(obs.replayRate, 0.5), "1/s")

	// Wall clock, from the traced wall_monitor pass.
	out.add("post_ns_p50", pctl(wall.postNS, 0.5), "ns")
	out.add("post_ns_p99", pctl(wall.postNS, 0.99), "ns")
	out.add("detect_us_p50", pctl(wall.detectUS, 0.5), "us")
	out.add("detect_us_p99", pctl(wall.detectUS, 0.99), "us")
	out.add("walltime.wake_us_p50", pctl(wall.wakeUS, 0.5), "us")
	out.add("walltime.wake_us_p99", pctl(wall.wakeUS, 0.99), "us")
	out.add("walltime.timer_late_us_p50", pctl(wall.timerLateUS, 0.5), "us")
	out.add("walltime.timer_late_us_p99", pctl(wall.timerLateUS, 0.99), "us")
	out.add("monitor.scan_us_p50", pctl(wall.scanUS, 0.5), "us")
	out.add("monitor.scan_us_p99", pctl(wall.scanUS, 0.99), "us")
	out.add("monitor.scans_per_frame", float64(wall.scans)/float64(wall.frames), "count")
	out.add("runtime.pending_max", float64(wall.pendingMax), "count")
	out.add("generator.late_us_p50", pctl(wall.genLateUS, 0.5), "us")
	out.add("generator.late_us_p99", pctl(wall.genLateUS, 0.99), "us")
	out.add("wall.failed_frac", wallOut.failedFrac(), "frac")
	return out, nil
}

func metricOf(o outcome, name string) float64 {
	for _, m := range o.metrics {
		if m.name == name {
			return m.value
		}
	}
	return nan()
}

// ladder measures the rungs on the sim_observed scenario, each adding one
// layer; a layer's cost is its rung's delta from the rung below. The rungs
// run interleaved, ladderReps rounds of all of them, so that a drift in
// host speed shifts every rung alike instead of opening a false delta.
func ladder(e env, out *outcome) error {
	samples := make([][]cost, len(rungNames))
	for round := 0; round < ladderReps; round++ {
		for rung, name := range rungNames {
			path := e.scratchPath(fmt.Sprintf("ladder-%s.chmtrc", name))
			c, err := measure(1, ladderFrames, func() error {
				r, err := buildRig(e.seed, rung, ladderFrames, path, nil, -1)
				if err != nil {
					return err
				}
				return r.run(nil, -1)
			})
			if err != nil {
				return fmt.Errorf("ladder rung %s: %w", name, err)
			}
			os.Remove(path)
			samples[rung] = append(samples[rung], c)
		}
	}
	var prev cost
	for rung, name := range rungNames {
		var us, allocs, bytes []float64
		for _, c := range samples[rung] {
			us, allocs, bytes = append(us, c.us), append(allocs, c.allocs), append(bytes, c.bytes)
		}
		c := cost{median(us), median(allocs), median(bytes)}
		out.addCost("ladder."+name, c)
		if rung > 0 {
			fmt.Printf("ladder %-14s %+10.3f us/frame %+10.2f allocs/frame %+12.1f B/frame over %s\n",
				name, c.us-prev.us, c.allocs-prev.allocs, c.bytes-prev.bytes, rungNames[rung-1])
		}
		prev = c
	}

	// Sim core counts on the monitored full chain, without telemetry (which
	// installs its own queue probe).
	r, err := buildRig(e.seed, rungMonitorFull, ladderFrames, "", nil, -1)
	if err != nil {
		return err
	}
	depthMax := 0
	r.sys.K.SetQueueProbe(func(d int) { depthMax = max(depthMax, d) })
	if err := r.run(nil, -1); err != nil {
		return err
	}
	out.add("sim.events_per_frame", float64(r.sys.K.Executed())/ladderFrames, "count")
	out.add("sim.queue_depth_max", float64(depthMax), "count")
	cfg := observedConfig(e.seed, rungAdaptive, observedFrames)
	out.add("perception.build_ms", 1e3*median(setupTimes(21, func(int) { perception.Build(cfg) })), "ms")
	out.add("telemetry.new_sink_ms", 1e3*median(setupTimes(21, func(int) { telemetry.NewSink(telemetry.DefaultTrackCap) })), "ms")
	return nil
}

// fleetRungs measures the fleet layers on the fleet_chaos batch: plain
// jittered vehicles, then fault injection, then the oracle; the pool's
// speed-up; and a serial VehicleArena pass per vehicle and fault class.
func fleetRungs(e env, out *outcome) error {
	mix := fleetMix()
	frames := float64(fleetVehicles * fleetFrames)
	var prev cost
	for i, rung := range []struct {
		name   string
		mix    bool
		oracle bool
	}{{"fleet", false, false}, {"faults", true, false}, {"oracle", true, true}} {
		cfg := fleetConfig(e.seed, e.workers, nil, rung.oracle)
		if rung.mix {
			cfg.Mix = mix
		}
		c, err := measure(2, frames, func() error {
			res, err := fleet.Run(cfg)
			if err == nil && len(res.Errs()) > 0 {
				err = fmt.Errorf("fleet rung %s: %d vehicles failed", rung.name, len(res.Errs()))
			}
			return err
		})
		if err != nil {
			return err
		}
		out.addCost("ladder."+rung.name, c)
		if i > 0 {
			fmt.Printf("ladder %-14s %+10.3f us/frame %+10.2f allocs/frame %+12.1f B/frame over fleet rung below\n",
				rung.name, c.us-prev.us, c.allocs-prev.allocs, c.bytes-prev.bytes)
		}
		prev = c
	}

	timeFleet := func(workers int) (time.Duration, error) {
		t0 := time.Now()
		_, err := fleet.Run(fleetConfig(e.seed, workers, mix, true))
		return time.Since(t0), err
	}
	serial, err := timeFleet(1)
	if err != nil {
		return err
	}
	par, err := timeFleet(e.workers)
	if err != nil {
		return err
	}
	out.add("parallel.speedup", serial.Seconds()/par.Seconds(), "x")

	arena := fleet.NewVehicleArena()
	base := fleetBase()
	var vehicleMS []float64
	classUS := map[string][]float64{}
	for i := 0; i < serialVehicles; i++ {
		camp := mix[i%len(mix)]
		p := fleet.DeriveParams(e.seed, i, fleet.Uniform(fleetJitter))
		t0 := time.Now()
		v := arena.RunVehicle(base, p, camp, true)
		d := time.Since(t0)
		if v.Err != "" {
			return fmt.Errorf("serial vehicle %d: %s", i, v.Err)
		}
		vehicleMS = append(vehicleMS, float64(d.Nanoseconds())/1e6)
		classUS[camp.Name] = append(classUS[camp.Name], float64(d.Nanoseconds())/1e3/fleetFrames)
	}
	out.add("fleet.vehicle_ms_p50", pctl(vehicleMS, 0.5), "ms")
	out.add("fleet.vehicle_ms_p95", pctl(vehicleMS, 0.95), "ms")
	for _, camp := range mix {
		out.add("faultinject."+metricName(camp.Name)+".us_per_frame", pctl(classUS[camp.Name], 0.5), "us")
	}
	return nil
}

// metricName maps a campaign name onto the metric-name alphabet.
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		}
		return '_'
	}, s)
}
