package experiments

import (
	"fmt"
	"io"
	"time"

	"chainmon/internal/realtime"
	"chainmon/internal/stats"
)

// Fig11Result carries the local-monitoring overheads of Fig. 11, measured
// wall-clock on the monitor that `chainmon -realtime` runs.
type Fig11Result struct {
	Activations int
	StartPost   *stats.Sample
	EndPost     *stats.Sample
	MonLatency  *stats.Sample
	MonExec     *stats.Sample
	Exceptions  int
	OK          int
}

// RunFig11 runs the wall-clock scenario (realtime.Run: two shared-start
// segments, objects and ground, as on ECU2) for the given number of
// activations and reports the overheads its monitor measured. segmentWork
// is the distance between start and end event; every fifth ground end is
// held one period, past the 2 ms deadline, so both the OK path and the
// exception path run.
func RunFig11(activations int, segmentWork time.Duration) Fig11Result {
	res, err := realtime.Run(realtime.Config{
		Frames:    activations,
		Period:    3 * time.Millisecond,
		Deadline:  2 * time.Millisecond,
		Work:      segmentWork,
		LateEvery: 5,
		RingCap:   1024,
		Seed:      1,
	}, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: Fig. 11 run: %v", err))
	}
	o := res.Overheads
	r := Fig11Result{
		Activations: activations,
		StartPost:   o.StartPost,
		EndPost:     o.EndPost,
		MonLatency:  o.MonLatency,
		MonExec:     o.MonExec,
	}
	for _, s := range res.Segments {
		r.OK += s.OK
		r.Exceptions += s.Missed + s.Recovered
	}
	return r
}

// Report prints the four Fig. 11 rows.
func (r Fig11Result) Report(w io.Writer) {
	section(w, "Figure 11 — Measured overheads for local segment monitoring (real, wall clock)",
		fmt.Sprintf("%d activations on two segments through the monitor that `chainmon -realtime`\n"+
			"runs: wait-free rings, semaphore wake, walltime loop (%d ok / %d exceptions).\n"+
			"Paper: posting overheads of a few tens of µs (worst < 100 µs); monitor\n"+
			"latency below ~200 µs.", r.Activations, r.OK, r.Exceptions))
	row(w, "start-event overhead", r.StartPost)
	row(w, "end-event overhead", r.EndPost)
	row(w, "monitor latency", r.MonLatency)
	row(w, "monitor execution time", r.MonExec)
}
