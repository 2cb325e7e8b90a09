package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"chainmon/internal/adaptive"
	"chainmon/internal/blame"
	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

const (
	// observedFrames is one sim_observed repetition. The busiest recorder
	// track takes about 18 events per frame, so 3000 frames stay inside the
	// default 64Ki-event ring and every track's Dropped() must read zero.
	observedFrames = 3000
	// scrapeEvery is the simulated interval between scrapes: 100 frames at
	// the 100 ms period.
	scrapeEvery = 10 * sim.Second
	// adaptInterval is the controller tick, the CLI's -adapt-interval
	// default.
	adaptInterval = sim.Second
)

// Rungs of the layer ladder, each adding one layer to the one below. The
// sim_observed workload is the top rung.
const (
	rungBare         = iota // sim + dds + netsim + vclock, no monitors
	rungMonitorLocal        // the two ECU2 local segments
	rungMonitorFull         // remote segments, fusion segments, chains, supervisor
	rungRecorder            // flight recorder on every layer
	rungStream              // recorder teed to the binary trace log
	rungLivestats           // live health sketches and SLO burn tracking
	rungBlame               // miss attribution on the stream observer
	rungAdaptive            // adaptive budget controller
)

var rungNames = []string{"bare", "monitor_local", "monitor_full", "recorder", "stream", "livestats", "blame", "adaptive"}

// rig is one observed vehicle wired as the CLI wires a single run up to
// the given rung.
type rig struct {
	sys    *perception.System
	sink   *telemetry.Sink
	stream *telemetry.StreamWriter
	path   string
	live   *livestats.Set
	eng    *blame.Engine

	// Timings of the instrumented layers, collected when traced; runSpan
	// and healthSpan are the open spans that callbacks nest under.
	tr         *spanLog
	runSpan    int
	healthSpan int
	feedNS     int64
	feedN      int64
	tickUS     []float64
	snapshotUS []float64
}

func observedConfig(seed int64, rung, frames int) perception.Config {
	cfg := perception.DefaultConfig()
	cfg.Seed = seed
	cfg.Frames = frames
	cfg.Monitored = rung >= rungMonitorLocal
	cfg.FullChain = rung >= rungMonitorFull
	return cfg
}

// buildRig constructs everything before the first frame: the telemetry
// sink and stream first (the stream must precede the first track), then
// the system and every attachment, as cmd/chainmon does.
func buildRig(seed int64, rung, frames int, path string, tr *spanLog, parent int) (*rig, error) {
	r := &rig{path: path, tr: tr}
	if rung >= rungRecorder {
		sp := tr.begin("telemetry.NewSink", parent, 0)
		r.sink = telemetry.NewSink(telemetry.DefaultTrackCap)
		tr.end(sp)
	}
	if rung >= rungStream {
		sp := tr.begin("telemetry.NewStreamFile", parent, 0)
		var err error
		r.stream, err = telemetry.NewStreamFile(path, "sim", telemetry.StreamOptions{Metrics: r.sink.Reg})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.sink.Rec.SetStream(r.stream)
	}
	if rung >= rungLivestats {
		r.live = livestats.NewSet(0)
		live, sink, stream := r.live, r.sink, r.stream
		sink.AddExportHook(func() { live.PublishMetrics(sink.Reg) })
		rec := sink.Rec
		live.AddDropSource("flight-recorder", rec.Dropped)
		live.AddDropSource("trace-stream", stream.Dropped)
	}
	if rung >= rungBlame {
		r.eng = blame.New(blame.Options{})
		r.eng.SetTimebase("sim")
		eng, sink := r.eng, r.sink
		if tr == nil {
			r.stream.SetObserver(eng.Feed)
		} else {
			r.stream.SetObserver(func(track uint16, ev telemetry.Event) {
				t0 := time.Now()
				eng.Feed(track, ev)
				r.feedNS += time.Since(t0).Nanoseconds()
				r.feedN++
			})
		}
		sink.AddExportHook(func() { eng.PublishMetrics(sink.Reg, blame.RecorderResolvers(sink.Rec)) })
		r.live.SetBlameProvider(func() any {
			sp := tr.begin("blame.Engine.Snapshot", r.healthSpan, 0)
			t0 := time.Now()
			doc := eng.Snapshot(blame.RecorderResolvers(sink.Rec))
			r.snapshotUS = append(r.snapshotUS, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(sp)
			return doc
		})
	}

	sp := tr.begin("perception.Build", parent, 0)
	r.sys = perception.Build(observedConfig(seed, rung, frames))
	tr.end(sp)
	s := r.sys
	if r.sink != nil {
		sp = tr.begin("perception.AttachTelemetry", parent, 0)
		perception.AttachTelemetry(s, r.sink)
		tr.end(sp)
	}
	if r.live != nil {
		sp = tr.begin("perception.AttachLive", parent, 0)
		perception.AttachLive(s, r.live)
		tr.end(sp)
	}
	if rung >= rungAdaptive {
		sp = tr.begin("adaptive.New", parent, 0)
		err := r.attachAdaptive()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if rung >= rungMonitorFull {
		sup := monitor.NewSupervisor(s.K, 5)
		sup.Watch(s.ChainFront)
		sup.Watch(s.ChainRear)
		sup.AttachTelemetry(r.sink)
	}
	return r, nil
}

// attachAdaptive is cmd/chainmon's -adaptive wiring: a budget table on the
// ECU2 monitor and a controller over the two evaluation segments, ticking
// as a kernel event.
func (r *rig) attachAdaptive() error {
	s := r.sys
	cfg := s.Cfg
	table := monitor.NewBudgetTable()
	s.MonECU2.AttachBudget(table)
	ctrl, err := adaptive.New(adaptive.Config{
		Set: r.live, Table: table, Chain: s.ChainFront.Name,
		Segments: []adaptive.SegmentSpec{
			{Name: perception.SegObjectsLocal, Propagation: 1,
				Initial: cfg.LocalDeadline, Min: cfg.LocalDeadline / 20, Max: cfg.LocalDeadline},
			{Name: perception.SegGroundLocal, Propagation: 1,
				Initial: cfg.LocalDeadline, Min: cfg.LocalDeadline / 20, Max: cfg.LocalDeadline},
		},
		DEx:        sim.Millisecond,
		Be2e:       2*(cfg.LocalDeadline+sim.Millisecond) + cfg.LocalDeadline/5,
		Constraint: cfg.Constraint,
		Guard:      adaptive.Guardrails{Hysteresis: adaptive.DefaultHysteresis},
		Sink:       r.sink,
	})
	if err != nil {
		return err
	}
	horizon := sim.Time(cfg.Frames) * sim.Time(cfg.Period)
	if r.tr == nil {
		ctrl.ScheduleSim(s.K, adaptInterval, horizon)
		return nil
	}
	// Traced: the same tick schedule as ScheduleSim, with each Tick timed.
	k := s.K
	var step func()
	step = func() {
		sp := r.tr.begin("adaptive.Controller.Tick", r.runSpan, int64(k.Now()/sim.Time(cfg.Period)))
		t0 := time.Now()
		ctrl.Tick(int64(k.Now()))
		r.tickUS = append(r.tickUS, float64(time.Since(t0).Nanoseconds())/1e3)
		r.tr.end(sp)
		if next := k.Now().Add(adaptInterval); next <= horizon {
			k.At(next, step)
		}
	}
	k.At(sim.Time(0).Add(adaptInterval), step)
	return nil
}

// run executes the frames as System.Run does, but advances the kernel in
// scrapeEvery steps through RunUntil so that scrape can run in between (nil
// scrape: no scrapes). Afterwards it settles the blame engine and closes
// the stream, as the CLI does.
func (r *rig) run(scrape func() error, parent int) error {
	s := r.sys
	s.FrontLidar.Start(0)
	s.RearLidar.Start(0)
	end := sim.Time(s.Cfg.Frames) * sim.Time(s.Cfg.Period)
	s.K.At(end, func() {
		s.FrontLidar.Stop()
		s.RearLidar.Stop()
	})
	s.K.At(end.Add(5*sim.Second), func() {
		for _, m := range []*monitor.RemoteMonitor{s.RemFront, s.RemRear, s.RemFused} {
			if m != nil {
				m.Stop()
			}
		}
	})
	tr := r.tr
	for t := sim.Time(0); s.K.Pending() > 0; {
		t = t.Add(scrapeEvery)
		sp := tr.begin("sim.Kernel.RunUntil", parent, int64(t/sim.Time(s.Cfg.Period)))
		r.runSpan = sp
		feed0 := r.feedNS
		t0 := tr.now()
		s.K.RunUntil(t)
		if r.feedN > 0 {
			tr.add("blame.Engine.Feed", sp, int64(t/sim.Time(s.Cfg.Period)), t0, t0+r.feedNS-feed0)
		}
		tr.end(sp)
		if scrape != nil && s.K.Pending() > 0 {
			if err := scrape(); err != nil {
				return err
			}
		}
	}
	if r.eng != nil {
		r.eng.Flush()
		r.eng.FlushExemplars(r.sink.Rec.Track("blame-exemplar"))
	}
	if r.stream != nil {
		return r.stream.Close()
	}
	return nil
}

// scrapeTimes are the thread CPU times of one scrape and its parts, in µs.
type scrapeTimes struct{ total, metrics, health float64 }

// scrapeOnce renders /metrics and the /health JSON (blame included) the way
// an HTTP scrape of the CLI does, returning the thread CPU times in µs.
func (r *rig) scrapeOnce(parent int) (scrapeTimes, error) {
	tr := r.tr
	root := tr.begin("scrape", parent, 0)
	c0 := threadCPU()
	sp := tr.begin("telemetry.Sink.WriteMetrics", root, 0)
	err := r.sink.WriteMetrics(io.Discard)
	tr.end(sp)
	if err != nil {
		return scrapeTimes{}, err
	}
	c1 := threadCPU()
	sp = tr.begin("livestats.Set.Health", root, 0)
	r.healthSpan = sp
	_, err = json.MarshalIndent(r.live.Health(), "", "  ")
	tr.end(sp)
	c2 := threadCPU()
	tr.end(root)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return scrapeTimes{us(c2 - c0), us(c1 - c0), us(c2 - c1)}, err
}

// readBack is the offline path over the written log: open it, build the
// attribution report, replay the blame engine, and render its snapshot.
type readBack struct {
	events                  int
	openS, reportS, replayS float64
	report                  *telemetry.Report
	snapshot                []byte
}

func (r *rig) readBack(parent int) (readBack, error) {
	var rb readBack
	tr := r.tr
	sp := tr.begin("telemetry.OpenLogSet", parent, 0)
	t0 := time.Now()
	l, err := telemetry.OpenLogSet(r.path)
	t1 := time.Now()
	tr.end(sp)
	if err != nil {
		return rb, err
	}
	sp = tr.begin("telemetry.BuildReport", parent, 0)
	rb.report = telemetry.BuildReport(l)
	t2 := time.Now()
	tr.end(sp)
	sp = tr.begin("blame.FromLog", parent, 0)
	rb.snapshot, err = json.Marshal(blame.FromLog(l, blame.Options{}).Snapshot(blame.LogResolvers(l)))
	t3 := time.Now()
	tr.end(sp)
	rb.events = l.Events()
	rb.openS, rb.reportS, rb.replayS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	return rb, err
}

// checkObserved compares the run's outputs with what must hold exactly and
// returns one line per violated check.
func (r *rig) checkObserved(rb readBack) ([]string, error) {
	var bad []string
	online, err := json.Marshal(r.eng.Snapshot(blame.RecorderResolvers(r.sink.Rec)))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(online, rb.snapshot) {
		bad = append(bad, "online blame snapshot differs from the blame.FromLog replay")
	}
	if d := r.stream.Dropped(); d != 0 {
		bad = append(bad, fmt.Sprintf("trace stream dropped %d events", d))
	}
	for _, t := range r.sink.Rec.Tracks() {
		if d := t.Dropped(); d != 0 {
			bad = append(bad, fmt.Sprintf("recorder track %s dropped %d events", t.Name(), d))
		}
	}
	s := r.sys
	stats := map[string]*monitor.SegmentStats{}
	for _, st := range []*monitor.SegmentStats{
		s.RemFront.Stats(), s.RemRear.Stats(), s.FusionFront.Stats(), s.FusionRear.Stats(),
		s.RemFused.Stats(), s.SegObjects.Stats(), s.SegGround.Stats(),
	} {
		stats[st.Name] = st
	}
	if len(rb.report.Segments) != len(stats) {
		bad = append(bad, fmt.Sprintf("report has %d segments, the monitors %d", len(rb.report.Segments), len(stats)))
	}
	for _, sr := range rb.report.Segments {
		st, ok := stats[sr.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("report segment %s is not monitored", sr.Name))
			continue
		}
		okN, rec, miss := st.Counts()
		if sr.OK != okN || sr.Recovered != rec || sr.Missed != miss {
			bad = append(bad, fmt.Sprintf("segment %s: report ok/recovered/missed %d/%d/%d, SegmentStats %d/%d/%d",
				sr.Name, sr.OK, sr.Recovered, sr.Missed, okN, rec, miss))
		}
	}
	return bad, nil
}

// observedStats collects the per-layer numbers of sim_observed runs.
type observedStats struct {
	reps                      int
	frames                    int64
	scrape, metrics, health   []float64
	snapshot, tick            []float64
	openS, reportS, replayS   []float64
	replayRate                []float64
	feedNS, feedN             int64
	streamEvents, streamBytes uint64
	dropped                   uint64
}

func runSimObserved(e env) (outcome, error) {
	out, _, err := simObserved(e, nil)
	return out, err
}

// simObserved runs fresh sim_observed repetitions for the run's duration.
// A repetition whose output checks fail counts all its frames as failed.
func simObserved(e env, tr *spanLog) (outcome, observedStats, error) {
	var out outcome
	var st observedStats
	var setups []float64
	var last *rig
	var lastRB readBack
	mem := startMem()
	start := time.Now()
	for rep := 0; rep < 2 || time.Since(start) < e.seconds || len(st.scrape) < 200; rep++ {
		root := tr.begin("observed.repetition", -1, int64(rep))
		path := e.scratchPath(fmt.Sprintf("observed-%d.chmtrc", rep))
		sp := tr.begin("setup", root, int64(rep))
		t0 := time.Now()
		r, err := buildRig(e.seed+int64(rep), rungAdaptive, observedFrames, path, tr, sp)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return out, st, err
		}
		runSp := tr.begin("run", root, int64(rep))
		err = r.run(func() error {
			ts, err := r.scrapeOnce(runSp)
			st.scrape = append(st.scrape, ts.total)
			st.metrics = append(st.metrics, ts.metrics)
			st.health = append(st.health, ts.health)
			return err
		}, runSp)
		tr.end(runSp)
		if err != nil {
			return out, st, err
		}
		sp = tr.begin("readback", root, int64(rep))
		rb, err := r.readBack(sp)
		tr.end(sp)
		if err != nil {
			return out, st, err
		}
		sp = tr.begin("check", root, int64(rep))
		bad, err := r.checkObserved(rb)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return out, st, err
		}
		os.Remove(path)

		out.attempted += observedFrames
		if len(bad) > 0 {
			out.failed += observedFrames
			out.broken = true
			for _, b := range bad {
				fmt.Printf("sim_observed: repetition %d: %s\n", rep, b)
			}
		}
		st.reps++
		st.frames += observedFrames
		st.openS = append(st.openS, rb.openS)
		st.reportS = append(st.reportS, rb.reportS)
		st.replayS = append(st.replayS, rb.replayS)
		st.replayRate = append(st.replayRate, float64(rb.events)/(rb.openS+rb.reportS+rb.replayS))
		st.snapshot = append(st.snapshot, r.snapshotUS...)
		st.tick = append(st.tick, r.tickUS...)
		st.feedNS += r.feedNS
		st.feedN += r.feedN
		st.streamEvents += r.stream.EventsWritten()
		st.streamBytes += r.stream.BytesWritten()
		st.dropped += r.stream.Dropped() + r.sink.Rec.Dropped()
		last, lastRB = r, rb
	}
	elapsed := time.Since(start)
	allocs, bytes := mem.stop()
	live := liveHeapMB()
	keepAlive(last, lastRB)

	frames := float64(st.frames)
	if err := out.addEndToEnd(median(setups), frames/elapsed.Seconds(), frames, allocs, bytes, live, st.scrape); err != nil {
		return out, st, err
	}
	fmt.Printf("sim_observed: %d repetitions of %d frames, %d scrapes, replay_events_per_s=%.6g\n",
		st.reps, observedFrames, len(st.scrape), pctl(st.replayRate, 0.5))
	return out, st, nil
}
