package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"chainmon/internal/monitor"
	"chainmon/internal/realtime"
	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/walltime"
	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

// The wall_monitor load. The period and lateness are those under which the
// timer-driven pass is known to run after some late ends were already
// posted (runtime.Core.drain then resolves them as OK): they are chosen to
// show that defect, not to hide it.
const (
	wallPeriod = 2 * time.Millisecond
	wallDMon   = time.Millisecond
	// wallLateFrac of the ends are posted past the deadline, by a lateness
	// uniform over (0, d_mon]: small overshoots are the common miss.
	wallLateFrac = 0.25
	wallRingCap  = 1024
	// wallScrapes is how many times the concurrent /metrics + /health
	// scraper runs, evenly spread over the run: a fixed count keeps the
	// scrapes' share of the run's allocations fixed.
	wallScrapes = 300
	// wallLead lets the monitor goroutine start before the first post.
	wallLead = 5 * time.Millisecond
	// wallWarmFrames precede the allocation window.
	wallWarmFrames = 500
)

// wallPost is one scheduled post of the open-loop producer.
type wallPost struct {
	due   time.Duration // from the schedule's base
	act   uint32
	seg   uint8 // 0 objects, 1 ground
	start bool
}

// wallSchedule draws the seeded post schedule of n frames: both segments
// start together every period; each end is on time (a fifth to three fifths
// of d_mon after the start) or, with probability wallLateFrac, late by a
// lateness uniform over (0, d_mon].
func wallSchedule(seed int64, n int) []wallPost {
	rng := rand.New(rand.NewSource(seed))
	posts := make([]wallPost, 0, 4*n)
	for i := 0; i < n; i++ {
		t0 := time.Duration(i) * wallPeriod
		for seg := uint8(0); seg < 2; seg++ {
			posts = append(posts, wallPost{due: t0, act: uint32(i), seg: seg, start: true})
		}
		for seg := uint8(0); seg < 2; seg++ {
			end := t0 + time.Duration((0.2+0.4*rng.Float64())*float64(wallDMon))
			if rng.Float64() < wallLateFrac {
				end = t0 + wallDMon + time.Duration((1-rng.Float64())*float64(wallDMon))
			}
			posts = append(posts, wallPost{due: end, act: uint32(i), seg: seg})
		}
	}
	sort.SliceStable(posts, func(a, b int) bool { return posts[a].due < posts[b].due })
	return posts
}

// wallRig is the wall-clock monitor wired as realtime.Run wires it with a
// metrics-only sink and no live health set: the in-vehicle monitor plus its
// Prometheus counters. (Live health is measured on sim_observed; on the wall
// clock its sketches grow with the latency spread, so the cost of a scrape
// would follow host contention rather than the code.)
type wallRig struct {
	clock *walltime.Clock
	sem   *walltime.Sem
	mon   *monitor.LocalMonitor
	segs  [2]*monitor.LocalSegment
	sink  *telemetry.Sink
	loop  *walltime.Loop

	frames *telemetry.Counter
	scans  *telemetry.Counter
	depth  *telemetry.Gauge
}

// buildWall constructs the monitor, its segments and metrics; onResolve
// observes every resolution of segment 0 (objects) or 1
// (ground) on the monitor goroutine.
func buildWall(seed int64, onResolve func(seg int, r monitor.Resolution)) *wallRig {
	w := &wallRig{clock: walltime.NewClock(), sem: walltime.NewSem()}
	w.mon = monitor.NewWallclockMonitor(w.clock, w.sem,
		func() rt.EventRing { return walltime.NewRing(wallRingCap) }, seed)
	w.sink = &telemetry.Sink{Reg: telemetry.NewRegistry()}
	reg := w.sink.Reg
	w.frames = reg.Counter("chainmon_realtime_frames_total", "Activations emitted by the wall-clock producer.")
	w.scans = reg.Counter("chainmon_monitor_scans_total", "Monitor-goroutine drain passes.")
	w.depth = reg.Gauge("chainmon_monitor_timeout_queue_depth", "Armed timeouts after a monitor pass.")

	mk := weaklyhard.Constraint{M: 1, K: 5}
	for i, name := range []string{realtime.SegObjects, realtime.SegGround} {
		seg := w.mon.AddSegment(monitor.SegmentConfig{
			Name: name, DMon: wallDMon, DEx: time.Millisecond, Period: wallPeriod, Constraint: mk,
		})
		segLabel := telemetry.Label{Name: "segment", Value: name}
		ok := reg.Counter("chainmon_segment_resolutions_total", "Resolved activations per segment and verdict.",
			segLabel, telemetry.Label{Name: "status", Value: "ok"})
		miss := reg.Counter("chainmon_segment_resolutions_total", "Resolved activations per segment and verdict.",
			segLabel, telemetry.Label{Name: "status", Value: "missed"})
		lat := reg.Histogram("chainmon_segment_latency_seconds", "Segment latency per resolved activation.", nil, segLabel)
		seg.OnResolve(func(r monitor.Resolution) {
			switch r.Status {
			case monitor.StatusOK:
				ok.Inc()
			case monitor.StatusMissed:
				miss.Inc()
			}
			if r.Latency > 0 {
				lat.Observe(int64(r.Latency))
			}
			onResolve(i, r)
		})
		w.segs[i] = seg
	}
	w.loop = walltime.NewLoop(w.clock, w.sem)
	return w
}

// wallStats is what one wall_monitor run measured.
type wallStats struct {
	frames                                  int
	postNS, scanUS, wakeUS, timerLateUS     []float64
	detectUS, genLateUS, scrapeUS           []float64
	pendingMax                              int
	scans                                   int
	lost, wrongLate, wrongOnTime, ambiguous int
}

func runWallMonitor(e env) (outcome, error) {
	out, _, err := wallMonitor(e, nil, nil, nil)
	return out, err
}

// wallMonitor runs the open-loop producer for the run's duration on the
// caller's goroutine, with the monitor loop and a scraper on their own.
// prodTr, monTr and scrapeTr record spans of the three goroutines when
// traced.
func wallMonitor(e env, prodTr, monTr, scrapeTr *spanLog) (outcome, wallStats, error) {
	var out outcome
	var st wallStats
	// At least five seconds of posts, so every tail has its ten samples,
	// after a warm-up second outside the allocation window: the monitor's
	// tables and sample buffers grow to their working size in it.
	n := max(int(e.seconds/wallPeriod), 2500) + wallWarmFrames
	st.frames = n
	sched := wallSchedule(e.seed, n)

	setupWall := func() []float64 {
		return setupTimes(25, func(int) { buildWall(e.seed, func(int, monitor.Resolution) {}) })
	}
	setups := setupWall()
	var resolved [2][]monitor.Resolution
	var resolveN [2][]uint8
	for s := range resolved {
		resolved[s] = make([]monitor.Resolution, n)
		resolveN[s] = make([]uint8, n)
	}
	w := buildWall(e.seed, func(s int, r monitor.Resolution) {
		if r.Activation < uint64(n) {
			resolved[s][r.Activation] = r
			resolveN[s][r.Activation]++
		}
	})

	// Monitor goroutine: every pass is timed; a pass entered at or after
	// the deadline the loop slept on is timer-driven.
	scanEntry := make([]rt.Time, 0, 8*n)
	scanDur := make([]rt.Duration, 0, 8*n)
	timerLate := make([]rt.Duration, 0, 2*n)
	// The monitor thread's id and CPU clock at its first pass, read by the
	// producer while the loop still runs.
	var monTID, monCPU0 atomic.Int64
	var nextDL rt.Time
	var nextOK bool
	core := w.mon.Core()
	w.loop.Next = func() (rt.Time, bool) {
		nextDL, nextOK = core.NextDeadline()
		return nextDL, nextOK
	}
	w.loop.Scan = func() {
		t0 := w.clock.Now()
		sp := monTr.begin("monitor.LocalMonitor.ScanNow", -1, int64(len(scanEntry)))
		w.mon.ScanNow()
		monTr.end(sp)
		t1 := w.clock.Now()
		if nextOK && t0 >= nextDL {
			timerLate = append(timerLate, t0.Sub(nextDL))
		}
		if monTID.Load() == 0 {
			monCPU0.Store(int64(threadCPU()))
			monTID.Store(int64(syscall.Gettid()))
		}
		scanEntry = append(scanEntry, t0)
		scanDur = append(scanDur, t1.Sub(t0))
		w.scans.Inc()
		pending := core.PendingTimeouts()
		w.depth.Set(int64(pending))
		st.pendingMax = max(st.pendingMax, pending)
	}

	postPre := make([]rt.Time, len(sched))
	postPost := make([]rt.Time, len(sched))
	st.genLateUS = make([]float64, 0, len(sched))
	stop := make(chan struct{})
	type scrapeResult struct {
		us  []float64
		err error
	}
	scraped := make(chan scrapeResult)

	var mem memWindow
	w.loop.Start()
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var us []float64
		tick := time.NewTicker(time.Duration(n) * wallPeriod / wallScrapes)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				scraped <- scrapeResult{us: us}
				return
			case <-tick.C:
			}
			sp := scrapeTr.begin("scrape", -1, int64(len(us)))
			c0 := threadCPU()
			err := w.sink.WriteMetrics(io.Discard)
			us = append(us, float64((threadCPU()-c0).Nanoseconds())/1e3)
			scrapeTr.end(sp)
			if err != nil {
				<-stop
				scraped <- scrapeResult{err: err}
				return
			}
		}
	}()

	// frames_per_s is frames per CPU-second of the producer and monitor
	// threads: the posts, the passes, and the loop's sleeps and wake-ups.
	// CPU time leaves out what the hypervisor stole.
	prodCPU0 := threadCPU()
	base := w.clock.Now().Add(wallLead)
	for i, p := range sched {
		due := base.Add(p.due)
		if d := due.Sub(w.clock.Now()); d > 0 {
			time.Sleep(d)
		}
		if p.start && p.seg == 0 && p.act == wallWarmFrames {
			mem = startMem()
		}
		seg := w.segs[p.seg]
		name := "monitor.LocalSegment.EndInjected"
		if p.start {
			name = "monitor.LocalSegment.StartInjected"
		}
		sp := prodTr.begin(name, -1, int64(p.act))
		postPre[i] = w.clock.Now()
		if p.start {
			seg.StartInjected(uint64(p.act))
		} else {
			seg.EndInjected(uint64(p.act))
		}
		postPost[i] = w.clock.Now()
		prodTr.end(sp)
		if p.start && p.seg == 1 {
			w.frames.Inc()
		}
		st.genLateUS = append(st.genLateUS, float64(postPre[i].Sub(due).Nanoseconds())/1e3)
	}
	// Let the last deadlines expire and the final ends drain, then wake the
	// loop once more so the drain happens before Stop (as realtime.Run).
	prodCPU := threadCPU() - prodCPU0
	time.Sleep(wallDMon + 20*time.Millisecond)
	w.sem.Wake()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	sr := <-scraped
	monCPU := threadCPUOf(int(monTID.Load())) - time.Duration(monCPU0.Load())
	w.loop.Stop()
	if sr.err != nil {
		return out, st, sr.err
	}
	st.scrapeUS = sr.us
	allocs, bytes := mem.stop()
	live := liveHeapMB()
	keepAlive(w, sched, postPre, postPost)
	setups = append(setups, setupWall()...)

	// Ground truth from the producer's own post timestamps: an end posted
	// after start + d_mon must resolve missed, an end posted before it must
	// resolve OK. An end within the posting window of the deadline is too
	// close to call either way and is not judged. A wrong verdict counts in
	// ok_frac (out.wrong); only a lost activation counts in failed.
	type stamp struct{ pre, post rt.Time }
	var starts, ends [2][]stamp
	for s := 0; s < 2; s++ {
		starts[s] = make([]stamp, n)
		ends[s] = make([]stamp, n)
	}
	for i, p := range sched {
		if p.start {
			starts[p.seg][p.act] = stamp{postPre[i], postPost[i]}
		} else {
			ends[p.seg][p.act] = stamp{postPre[i], postPost[i]}
		}
	}
	for s := 0; s < 2; s++ {
		for a := 0; a < n; a++ {
			out.attempted++
			if resolveN[s][a] != 1 {
				st.lost++
				out.failed++
				continue
			}
			r := resolved[s][a]
			st0, en := starts[s][a], ends[s][a]
			switch {
			case en.pre.Sub(st0.post) > wallDMon:
				if r.Status != monitor.StatusMissed {
					st.wrongLate++
					out.wrong++
				} else {
					st.detectUS = append(st.detectUS, float64(r.DetectionLatency.Nanoseconds())/1e3)
				}
			case en.post.Sub(st0.pre) < wallDMon:
				if r.Status != monitor.StatusOK {
					st.wrongOnTime++
					out.wrong++
				}
			default:
				st.ambiguous++
			}
		}
	}
	if st.lost > 0 {
		out.broken = true
	}

	// Per-post and per-pass times, and the wake latency from each start
	// post to the next pass entry.
	for i, p := range sched {
		d := postPost[i].Sub(postPre[i])
		st.postNS = append(st.postNS, float64(d.Nanoseconds()))
		if p.start {
			j := sort.Search(len(scanEntry), func(k int) bool { return scanEntry[k] >= postPost[i] })
			if j < len(scanEntry) {
				st.wakeUS = append(st.wakeUS, float64(scanEntry[j].Sub(postPost[i]).Nanoseconds())/1e3)
			}
		}
	}
	for _, d := range scanDur {
		st.scanUS = append(st.scanUS, float64(d.Nanoseconds())/1e3)
	}
	for _, d := range timerLate {
		st.timerLateUS = append(st.timerLateUS, float64(d.Nanoseconds())/1e3)
	}
	st.scans = len(scanEntry)

	if err := out.addEndToEnd(median(setups), float64(n)/(prodCPU+monCPU).Seconds(), float64(n-wallWarmFrames), allocs, bytes, live, st.scrapeUS); err != nil {
		return out, st, err
	}
	fmt.Printf("wall_monitor: %d frames at %v, d_mon %v: %d activations lost, %d late ends resolved OK, %d on-time ends resolved missed, %d too close to judge\n",
		n, wallPeriod, wallDMon, st.lost, st.wrongLate, st.wrongOnTime, st.ambiguous)
	fmt.Printf("wall_monitor: post_ns p50=%.6g p99=%.6g  detect_us p50=%.6g p99=%.6g  generator late_us p50=%.6g\n",
		pctl(st.postNS, 0.5), pctl(st.postNS, 0.99), pctl(st.detectUS, 0.5), pctl(st.detectUS, 0.99),
		pctl(st.genLateUS, 0.5))
	return out, st, nil
}
