package monitor

import (
	"sync"
	"testing"
	"time"

	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/walltime"
	"chainmon/internal/telemetry"
)

// TestWallclockConcurrentProducersRace runs the wall-clock monitor in its
// documented concurrency shape under the race detector: one producer
// goroutine per segment posting against the live walltime.Loop that drains
// the rings and fires timeouts, with telemetry attached so producers and the
// monitor append to the recorder concurrently. The rings exceed the
// activation count, so nothing can drop and every activation must resolve
// exactly once, OK or missed.
func TestWallclockConcurrentProducersRace(t *testing.T) {
	const (
		segments = 3
		acts     = 400
		ringCap  = 512
		dMon     = 5 * time.Millisecond
	)
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(ringCap) }, 1)
	sink := telemetry.NewSink(1 << 10)
	segs := make([]*LocalSegment, segments)
	resolved := make([][acts]int, segments) // written on the monitor goroutine
	for i := range segs {
		segs[i] = mon.AddSegment(SegmentConfig{Name: "race/" + string(rune('a'+i)), DMon: dMon})
		segs[i].OnResolve(func(r Resolution) { resolved[i][r.Activation]++ })
	}
	mon.AttachWallclockTelemetry(sink, "race")
	loop := walltime.NewLoop(clock, sem)
	loop.Scan = mon.ScanNow
	loop.Next = mon.Core().NextDeadline
	loop.Start()

	var wg sync.WaitGroup
	for i, seg := range segs {
		wg.Add(1)
		go func(i int, seg *LocalSegment) {
			defer wg.Done()
			for act := uint64(0); act < acts; act++ {
				seg.StartInjected(act)
				// Withhold every 16th end, staggered per segment, so the
				// timeout path runs concurrently with ring drains. The first
				// activation ends: a segment's in-order resolution stream
				// starts at the first activation that resolves.
				if (act+uint64(i))%16 != 15 {
					seg.EndInjected(act)
				}
				// Paced so far fewer than the reorder window's 64 later
				// activations resolve while a withheld one waits for its
				// deadline.
				time.Sleep(200 * time.Microsecond)
			}
		}(i, seg)
	}
	wg.Wait()
	// Past the last withheld deadline, wake once more so the final ends
	// drain before Stop.
	time.Sleep(4 * dMon)
	sem.Wake()
	time.Sleep(5 * time.Millisecond)
	loop.Stop()

	for i, seg := range segs {
		if d := seg.Dropped(); d != 0 {
			t.Errorf("seg %d: %d posts dropped despite the oversized ring", i, d)
		}
		for act, n := range resolved[i] {
			if n != 1 {
				t.Fatalf("seg %d: activation %d resolved %d times, want once", i, act, n)
			}
		}
		ok, _, missed := seg.Stats().Counts()
		// Every withheld end must surface as a miss; a slow scheduler may
		// add a few more (an end posted after its deadline), never fewer.
		if withheld := acts / 16; missed < withheld {
			t.Errorf("seg %d: %d misses, want at least %d withheld ends", i, missed, withheld)
		}
		if ok == 0 {
			t.Errorf("seg %d: no activation completed in time", i)
		}
	}
	o := mon.Overheads()
	if o.StartPost.Len() != segments*acts {
		t.Errorf("start-post samples = %d, want %d", o.StartPost.Len(), segments*acts)
	}
	if o.MonExec.Len() == 0 || o.StartPost.Max() <= 0 {
		t.Error("wall-clock overheads not measured")
	}
	scans := sink.Reg.Counter("chainmon_monitor_scans_total", "",
		telemetry.Label{Name: "ecu", Value: "race"}).Value()
	if scans != uint64(o.MonExec.Len()) {
		t.Errorf("scan counter %d, execution-time samples %d", scans, o.MonExec.Len())
	}
}

// A full wall-clock ring rejects a post: the segment counts the drop,
// exports it and records a ring-drop event instead of a post.
func TestWallclockFullRingCountsDrop(t *testing.T) {
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(2) }, 1)
	seg := mon.AddSegment(SegmentConfig{Name: "tiny", DMon: time.Second})
	sink := telemetry.NewSink(64)
	mon.AttachWallclockTelemetry(sink, "drop")
	for act := uint64(0); act < 3; act++ {
		seg.StartInjected(act) // no scan runs: the third post finds the ring full
	}
	if d := seg.Dropped(); d != 1 {
		t.Fatalf("Dropped() = %d, want 1", d)
	}
	if n := sink.Reg.Counter("chainmon_ring_drops_total", "",
		telemetry.Label{Name: "segment", Value: "tiny"}).Value(); n != 1 {
		t.Errorf("chainmon_ring_drops_total = %d, want 1", n)
	}
	var kinds []telemetry.Kind
	for _, ev := range sink.Rec.Track("tiny/posts").Events() {
		kinds = append(kinds, ev.Kind)
	}
	want := []telemetry.Kind{telemetry.KindRingPostStart, telemetry.KindRingPostStart, telemetry.KindRingDrop}
	if len(kinds) != len(want) {
		t.Fatalf("posts track kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("posts track kinds = %v, want %v", kinds, want)
		}
	}
	if n := mon.Overheads().StartPost.Len(); n != 3 {
		t.Errorf("start-post samples = %d, want 3 (a dropped post still cost its producer)", n)
	}
}

// wallRig is a wall-clock monitor with one segment per name, driven by a
// running walltime loop; every resolution is forwarded, with its segment
// name, to res.
type wallRig struct {
	mon  *LocalMonitor
	segs []*LocalSegment
	sem  *walltime.Sem
	loop *walltime.Loop
	res  chan namedResolution
}

func startWallclock(dMon time.Duration, ringCap int, names ...string) *wallRig {
	clock, sem := walltime.NewClock(), walltime.NewSem()
	w := &wallRig{
		mon: NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(ringCap) }, 1),
		sem: sem,
		res: make(chan namedResolution, 64),
	}
	for _, name := range names {
		seg := w.mon.AddSegment(SegmentConfig{Name: name, DMon: dMon})
		seg.OnResolve(func(r Resolution) { w.res <- namedResolution{name, r} })
		w.segs = append(w.segs, seg)
	}
	w.loop = walltime.NewLoop(clock, sem)
	w.loop.Scan = w.mon.ScanNow
	w.loop.Next = w.mon.Core().NextDeadline
	w.loop.Start()
	return w
}

type namedResolution struct {
	seg string
	r   Resolution
}

// awaitResolutions collects n resolutions or fails the test after two
// seconds.
func awaitResolutions(t *testing.T, ch <-chan namedResolution, n int) []namedResolution {
	t.Helper()
	var got []namedResolution
	timeout := time.After(2 * time.Second)
	for len(got) < n {
		select {
		case nr := <-ch:
			got = append(got, nr)
		case <-timeout:
			t.Fatalf("got %d of %d resolutions: %+v", len(got), n, got)
		}
	}
	return got
}

// On-time ends resolve OK, nothing drops, and every post and pass leaves its
// Fig. 11 sample.
func TestWallclockOKPath(t *testing.T) {
	// A generous deadline keeps the test robust against scheduling
	// hiccups on loaded, non-realtime test machines.
	w := startWallclock(500*time.Millisecond, 64, "s")
	seg := w.segs[0]
	for act := uint64(0); act < 10; act++ {
		seg.StartInjected(act)
		time.Sleep(time.Millisecond)
		seg.EndInjected(act)
	}
	// End posts do not wake the monitor: wake it once more so the final
	// end drains.
	time.Sleep(time.Millisecond)
	w.sem.Wake()
	got := awaitResolutions(t, w.res, 10)
	w.loop.Stop()
	for i, nr := range got {
		if nr.r.Activation != uint64(i) || nr.r.Status != StatusOK {
			t.Errorf("resolution %d = act %d %v, want act %d OK", i, nr.r.Activation, nr.r.Status, i)
		}
	}
	if d := seg.Dropped(); d != 0 {
		t.Errorf("dropped = %d", d)
	}
	o := w.mon.Overheads()
	if o.StartPost.Len() != 10 || o.EndPost.Len() != 10 {
		t.Errorf("post samples = %d,%d, want 10,10", o.StartPost.Len(), o.EndPost.Len())
	}
	if o.MonLatency.Len() == 0 || o.MonExec.Len() == 0 {
		t.Error("missing monitor measurements")
	}
}

// A start without an end raises its temporal exception once the deadline
// has passed, from the loop's deadline sleep alone.
func TestWallclockRaisesTimeout(t *testing.T) {
	w := startWallclock(10*time.Millisecond, 64, "s")
	defer w.loop.Stop()
	t0 := time.Now()
	w.segs[0].StartInjected(7) // never post an end event
	nr := awaitResolutions(t, w.res, 1)[0]
	elapsed := time.Since(t0)
	if nr.r.Activation != 7 || nr.r.Status != StatusMissed {
		t.Errorf("resolution = act %d %v, want act 7 missed", nr.r.Activation, nr.r.Status)
	}
	if elapsed < 10*time.Millisecond {
		t.Errorf("exception after %v, before the deadline", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("exception after %v, far too late", elapsed)
	}
}

// An end drained before the deadline suppresses the exception; only the
// activation that never ends misses.
func TestWallclockEndBeforeDeadlineSuppressesException(t *testing.T) {
	w := startWallclock(100*time.Millisecond, 64, "s")
	defer w.loop.Stop()
	seg := w.segs[0]
	seg.StartInjected(1)
	time.Sleep(5 * time.Millisecond)
	seg.EndInjected(1)
	// The next start wakes the monitor, which drains the end well before
	// the deadline.
	seg.StartInjected(2)
	time.Sleep(2 * time.Millisecond)
	seg.EndInjected(2)
	seg.StartInjected(3)
	want := []Status{StatusOK, StatusOK, StatusMissed}
	for i, nr := range awaitResolutions(t, w.res, 3) {
		if nr.r.Activation != uint64(i+1) || nr.r.Status != want[i] {
			t.Errorf("resolution %d = act %d %v, want act %d %v",
				i, nr.r.Activation, nr.r.Status, i+1, want[i])
		}
	}
}

// Simultaneous exceptions of several segments are raised in registration
// order.
func TestWallclockMultipleSegmentsFixedOrder(t *testing.T) {
	w := startWallclock(10*time.Millisecond, 16, "a", "b")
	defer w.loop.Stop()
	w.segs[0].StartInjected(0)
	w.segs[1].StartInjected(0)
	got := awaitResolutions(t, w.res, 2)
	if got[0].seg != "a" || got[1].seg != "b" {
		t.Errorf("exception order = [%s %s], want [a b]", got[0].seg, got[1].seg)
	}
}

// TestWallclockTelemetryConcurrentAppends runs two producer goroutines and
// the monitor loop, all appending to the flight recorder concurrently
// (producers to their per-segment posts tracks, the monitor to its own,
// shared counters and histograms via atomics). Under -race the assertion is
// primarily that the race detector stays quiet.
func TestWallclockTelemetryConcurrentAppends(t *testing.T) {
	const acts = 400
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(512) }, 1)
	segA := mon.AddSegment(SegmentConfig{Name: "race/a", DMon: 500 * time.Microsecond})
	segB := mon.AddSegment(SegmentConfig{Name: "race/b", DMon: 500 * time.Microsecond})
	sink := telemetry.NewSink(1 << 10)
	mon.AttachWallclockTelemetry(sink, "race")
	loop := walltime.NewLoop(clock, sem)
	loop.Scan = mon.ScanNow
	loop.Next = mon.Core().NextDeadline
	loop.Start()

	var wg sync.WaitGroup
	for _, seg := range []*LocalSegment{segA, segB} {
		wg.Add(1)
		go func(s *LocalSegment) {
			defer wg.Done()
			for act := uint64(1); act <= acts; act++ {
				s.StartInjected(act)
				if act%5 != 0 { // every 5th activation times out
					s.EndInjected(act)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}(seg)
	}
	wg.Wait()
	// Give pending timeouts a chance to fire, then stop the monitor.
	time.Sleep(2 * time.Millisecond)
	loop.Stop()

	// The rings exceed the activation count, so nothing drops; 400 starts
	// and 320 ends fit the 1024-event posts track.
	var starts, drops int
	for _, ev := range sink.Rec.Track("race/a/posts").Events() {
		switch ev.Kind {
		case telemetry.KindRingPostStart:
			starts++
		case telemetry.KindRingDrop:
			drops++
		}
	}
	if starts != acts || drops != 0 {
		t.Fatalf("segment a: %d start posts, %d drops, want %d/0", starts, drops, acts)
	}
	if n := sink.Reg.Counter("chainmon_ring_drops_total", "",
		telemetry.Label{Name: "segment", Value: "race/a"}).Value(); n != 0 || segA.Dropped() != 0 {
		t.Errorf("drop counter %d, Dropped() %d, want 0", n, segA.Dropped())
	}
	if sink.Rec.Track("race/monitor").Len() == 0 {
		t.Fatal("monitor recorded no events")
	}
	scans := sink.Reg.Counter("chainmon_monitor_scans_total", "",
		telemetry.Label{Name: "ecu", Value: "race"}).Value()
	if scans == 0 {
		t.Fatal("monitor recorded no scans")
	}
}
