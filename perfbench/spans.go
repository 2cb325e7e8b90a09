package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent indexes the enclosing span of
// the same log (-1 for a root); Key is the frame, activation, batch or pass
// the call served.
type span struct {
	Name   string `json:"name"`
	Key    int64  `json:"key"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog holds the spans of one goroutine in memory until the run ends. A
// nil *spanLog records nothing, so untraced runs pass nil.
type spanLog struct {
	thread string
	epoch  time.Time
	spans  []span
}

func newSpanLog(thread string, epoch time.Time) *spanLog {
	return &spanLog{thread: thread, epoch: epoch, spans: make([]span, 0, 1<<14)}
}

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

// begin opens a span and returns its id (-1 when not tracing).
func (l *spanLog) begin(name string, parent int, key int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Key: key, Parent: parent, Start: l.now()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = l.now()
}

// add records a closed span, for time measured in aggregate (a hot
// callback's summed duration inside its parent).
func (l *spanLog) add(name string, parent int, key, start, end int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Name: name, Key: key, Parent: parent, Start: start, End: end})
}

// selfTime is the aggregate of all spans of one name.
type selfTime struct {
	name    string
	count   int
	totalMS float64
	selfMS  float64
}

// selfTimes derives each span's self time — its duration minus the part
// of its interval its children cover — and sums both per span name.
func selfTimes(l *spanLog) []selfTime {
	byName := map[string]*selfTime{}
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range l.spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(l.spans[c].Start, s.Start), min(l.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		agg := byName[s.Name]
		if agg == nil {
			agg = &selfTime{name: s.Name}
			byName[s.Name] = agg
		}
		agg.count++
		agg.totalMS += float64(s.End-s.Start) / 1e6
		agg.selfMS += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].selfMS > out[b].selfMS })
	return out
}

// spanFile is the on-disk form of the logs: one entry per goroutine.
type spanFile []struct {
	Thread string `json:"thread"`
	Spans  []span `json:"spans"`
}

// readSpans reads a file written by writeSpans back into logs.
func readSpans(path string) ([]*spanLog, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc spanFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	logs := make([]*spanLog, 0, len(doc))
	for _, t := range doc {
		logs = append(logs, &spanLog{thread: t.Thread, spans: t.Spans})
	}
	return logs, nil
}

// writeSpans writes every log as JSON to path.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := make(spanFile, len(logs))
	for i, l := range logs {
		doc[i].Thread, doc[i].Spans = l.thread, l.spans
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the self-time table of each traced goroutine.
func printSelfTimes(logs []*spanLog) {
	for _, l := range logs {
		fmt.Printf("self times, %s (%d spans):\n", l.thread, len(l.spans))
		fmt.Printf("  %-40s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, st := range selfTimes(l) {
			fmt.Printf("  %-40s %8d %12.3f %12.3f\n", st.name, st.count, st.totalMS, st.selfMS)
		}
	}
}
