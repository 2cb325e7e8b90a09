package monitor

import (
	"fmt"

	"chainmon/internal/stats"
)

// SegmentStats accumulates per-segment measurements: the monitored segment
// latencies (Fig. 9), the latencies of the temporal exception cases
// (Fig. 10), detection/entry latencies (Figs. 10 and 12), and the resolution
// counts by status.
type SegmentStats struct {
	Name string

	resolutions []Resolution
	latency     *stats.Sample // all activations (monitored latency definition)
	excLatency  *stats.Sample // exception cases only
	detection   *stats.Sample // deadline → handler entry
	counts      [3]int        // by Status
}

// NewSegmentStats creates an empty collector.
func NewSegmentStats(name string) *SegmentStats {
	return &SegmentStats{
		Name:       name,
		latency:    stats.NewSample(),
		excLatency: stats.NewSample(),
		detection:  stats.NewSample(),
	}
}

func (s *SegmentStats) record(r Resolution) {
	s.resolutions = append(s.resolutions, r)
	s.counts[r.Status]++
	if lat, ok := r.LatencySample(); ok {
		s.latency.AddDuration(lat)
	}
	if r.Exception {
		if r.Start != 0 {
			s.excLatency.AddDuration(r.Latency)
		}
		s.detection.AddDuration(r.DetectionLatency)
	}
}

// Resolutions returns all recorded resolutions in activation order.
func (s *SegmentStats) Resolutions() []Resolution { return s.resolutions }

// Latencies returns the monitored latency sample over all activations that
// started (end event or exception end, whichever came first).
func (s *SegmentStats) Latencies() *stats.Sample { return s.latency }

// ExceptionLatencies returns the latency sample of exception cases only.
func (s *SegmentStats) ExceptionLatencies() *stats.Sample { return s.excLatency }

// DetectionLatencies returns the deadline-to-handler-entry sample.
func (s *SegmentStats) DetectionLatencies() *stats.Sample { return s.detection }

// Counts returns how many activations resolved ok, recovered and missed.
func (s *SegmentStats) Counts() (ok, recovered, missed int) {
	return s.counts[StatusOK], s.counts[StatusRecovered], s.counts[StatusMissed]
}

// Exceptions returns the number of temporal exceptions raised.
func (s *SegmentStats) Exceptions() int {
	return s.counts[StatusRecovered] + s.counts[StatusMissed]
}

// Summary renders a one-line overview.
func (s *SegmentStats) Summary() string {
	ok, rec, miss := s.Counts()
	return fmt.Sprintf("%-24s activations=%d ok=%d recovered=%d missed=%d", s.Name, len(s.resolutions), ok, rec, miss)
}

// OverheadStats holds the local-monitoring overhead measurements of
// Fig. 11: event posting costs, the monitor latency (post → processed by
// the monitor thread) and the monitor execution time — modelled on the
// simulation runtime, measured on the wall clock (LocalMonitor.Overheads).
type OverheadStats struct {
	StartPost  *stats.Sample // start-event overhead
	EndPost    *stats.Sample // end-event overhead
	MonLatency *stats.Sample // monitor latency: post → drained
	MonExec    *stats.Sample // monitor thread execution time per scan
}

// Rows renders the four overhead boxplot rows of Fig. 11.
func (o *OverheadStats) Rows() []string {
	return []string{
		o.StartPost.Tukey().DurationRow("start-event overhead"),
		o.EndPost.Tukey().DurationRow("end-event overhead"),
		o.MonLatency.Tukey().DurationRow("monitor latency"),
		o.MonExec.Tukey().DurationRow("monitor execution time"),
	}
}
