package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"chainmon/internal/faultinject"
	"chainmon/internal/fleet"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

const (
	// fleetVehicles is the size of one fleet.Run batch: eight vehicles per
	// fault class. Small enough for many batches per run (a steadier
	// median), large enough that the work-stealing pool's idle tail is a
	// fraction of a percent.
	fleetVehicles = 104
	fleetFrames   = 120
	fleetJitter   = 0.1
	// fleetExportsPerBatch is how many times each batch's rollup is
	// scraped, so the scrape tail has enough samples.
	fleetExportsPerBatch = 24
	// refFleetSeed is the fleet seed of the reference batch every run
	// starts with; refFleetDigest is the SHA-256 prefix of its
	// Result.Summary(). A speed-only change leaves every simulated
	// statistic identical, so a changed digest is a changed model.
	refFleetSeed   = 1
	refFleetDigest = "a9949aa69c300bce"
)

// fleetMix is nominal plus every fault class, assigned round-robin.
func fleetMix() []faultinject.Campaign {
	mix := []faultinject.Campaign{{Name: "nominal"}}
	for _, e := range faultinject.AllCampaigns() {
		mix = append(mix, e.Campaign)
	}
	return mix
}

func fleetBase() perception.Config {
	base := perception.DefaultConfig()
	base.FullChain = true
	base.Frames = fleetFrames
	return base
}

// fleetConfig is the fleet_chaos batch configuration.
func fleetConfig(seed int64, workers int, mix []faultinject.Campaign, oracle bool) fleet.Config {
	return fleet.Config{
		Size:    fleetVehicles,
		Seed:    seed,
		Jitter:  fleet.Uniform(fleetJitter),
		Base:    fleetBase(),
		Mix:     mix,
		Oracle:  oracle,
		Workers: workers,
	}
}

// summaryDigest fingerprints a fleet summary.
func summaryDigest(res *fleet.Result) string {
	sum := sha256.Sum256([]byte(res.Summary()))
	return hex.EncodeToString(sum[:8])
}

// failedVehicleFrames counts the vehicle-frames of vehicles the oracle
// caught with a false negative or whose run failed.
func failedVehicleFrames(res *fleet.Result) int64 {
	var n int64
	for _, v := range res.Vehicles {
		if v.FalseNegatives > 0 || v.Err != "" {
			n += int64(res.Frames)
		}
	}
	return n
}

// exportFleet is the `chainmon fleet -metrics-out` export of a batch: the
// rollup into a fresh registry, rendered as Prometheus text.
func exportFleet(res *fleet.Result) error {
	sink := &telemetry.Sink{Reg: telemetry.NewRegistry()}
	res.Rollup(sink.Reg)
	return sink.WriteMetrics(io.Discard)
}

// setupVehicle constructs everything a fleet vehicle needs before its
// first frame: the batch's mix, the vehicle's jittered configuration, the
// system, the oracle and the installed fault campaign.
func setupVehicle(seed int64, i int) error {
	mix := fleetMix()
	camp := mix[i%len(mix)]
	p := fleet.DeriveParams(seed, i, fleet.Uniform(fleetJitter))
	sys := perception.Build(p.Apply(fleetBase()))
	faultinject.ForPerception(sys, camp)
	if len(camp.Faults) == 0 {
		return nil
	}
	return faultinject.NewInjector(sim.NewRNG(p.Seed)).Apply(camp, faultinject.TargetsOf(sys))
}

func runFleetChaos(e env) (outcome, error) { return fleetChaos(e, nil) }

// fleetChaos runs fleet.Run batches for the run's duration. The first batch
// is the reference batch (checked against refFleetDigest); the others are
// seeded from the run's seed.
func fleetChaos(e env, tr *spanLog) (outcome, error) {
	var out outcome
	var setupErr error
	setupVehicles := func() []float64 {
		return setupTimes(len(fleetMix()), func(i int) {
			if err := setupVehicle(e.seed, i); err != nil {
				setupErr = err
			}
		})
	}
	setups := setupVehicles()

	mix := fleetMix()
	var scrapes []float64
	var last *fleet.Result
	mem := startMem()
	start := time.Now()
	for batch := 0; batch == 0 || time.Since(start) < e.seconds ||
		len(scrapes) < 200; batch++ {
		seed := int64(refFleetSeed)
		if batch > 0 {
			seed = e.seed<<20 + int64(batch)
		}
		root := tr.begin("fleet.batch", -1, int64(batch))
		sp := tr.begin("fleet.Run", root, int64(batch))
		res, err := fleet.Run(fleetConfig(seed, e.workers, mix, true))
		tr.end(sp)
		if err != nil {
			return out, err
		}
		frames := int64(res.Size) * int64(res.Frames)
		out.attempted += frames
		sp = tr.begin("fleet.check", root, int64(batch))
		failed := failedVehicleFrames(res)
		if batch == 0 {
			digest := summaryDigest(res)
			fmt.Printf("fleet_chaos: reference batch (seed %d) summary digest %s\n", refFleetSeed, digest)
			if digest != refFleetDigest {
				fmt.Printf("fleet_chaos: digest differs from the recorded %s: simulated statistics changed\n", refFleetDigest)
				failed = frames
			}
		}
		if failed > 0 {
			out.broken = true
		}
		out.failed += failed
		tr.end(sp)
		sp = tr.begin("fleet.export", root, int64(batch))
		// Collect the batch's garbage first, so the exports are not charged
		// the GC assists the batch ran up.
		runtime.GC()
		for k := 0; k < fleetExportsPerBatch; k++ {
			c0 := threadCPU()
			if err := exportFleet(res); err != nil {
				return out, err
			}
			scrapes = append(scrapes, float64((threadCPU()-c0).Nanoseconds())/1e3)
		}
		tr.end(sp)
		tr.end(root)
		last = res
	}
	elapsed := time.Since(start)
	allocs, bytes := mem.stop()
	live := liveHeapMB()
	keepAlive(last, mix)
	if setups = append(setups, setupVehicles()...); setupErr != nil {
		return out, setupErr
	}

	frames := float64(out.attempted)
	if err := out.addEndToEnd(median(setups), frames/elapsed.Seconds(), frames, allocs, bytes, live, scrapes); err != nil {
		return out, err
	}
	fmt.Printf("fleet_chaos: %d batches of %d vehicles × %d frames, %d workers, %d failed vehicle-frames\n",
		out.attempted/(fleetVehicles*fleetFrames), fleetVehicles, fleetFrames, e.workers, out.failed)
	return out, nil
}
