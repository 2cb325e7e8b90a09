// Command perfbench is chainmon's end-to-end benchmark: three workloads
// (fleet_chaos, sim_observed, wall_monitor) measured from outside, by timing
// calls into the layers' public functions. README.md defines the workloads
// and every metric.
//
// Usage, from the repository root (normally through perfbench/run.py):
//
//	perfbench --workload fleet_chaos|sim_observed|wall_monitor
//	          --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics of the separate traced run
// (layers.go) with --trace 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one named measurement of the result line.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload run reports: operation counts and the metrics
// for the result line.
type outcome struct {
	attempted, failed int64
	// wrong counts the wall_monitor verdicts the producer's ground truth
	// contradicts. They are failed activations of ok_frac, kept out of
	// failed: which late ends a late timer pass resolves OK follows the
	// host's timer lateness, so their number differs between runs of the
	// same seed, while failed must repeat exactly.
	wrong int64
	// broken is set when an output check that must hold exactly failed
	// (an error, a lost activation, a digest or byte-identity mismatch);
	// failed operations alone do not set it.
	broken  bool
	metrics []metric
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

// failedFrac is the share of attempted operations that failed or got a
// wrong verdict.
func (o *outcome) failedFrac() float64 { return frac(o.failed+o.wrong, o.attempted) }

// addEndToEnd appends the gated metrics, which every workload reports under
// the same names: frames is the count allocs and bytes are divided by.
func (o *outcome) addEndToEnd(setupS, framesPerS, frames, allocs, bytes, liveMB float64, scrapeUS []float64) error {
	p95, err := tail("scrape_us", append([]float64(nil), scrapeUS...), 0.95)
	if err != nil {
		return err
	}
	o.add("setup_s", setupS, "s")
	o.add("frames_per_s", framesPerS, "1/s")
	o.add("allocs_per_frame", allocs/frames, "count")
	o.add("bytes_per_frame", bytes/frames, "B")
	o.add("live_heap_mb", liveMB, "MB")
	o.add("ok_frac", 1-o.failedFrac(), "frac")
	o.add("scrape_us_p50", pctl(scrapeUS, 0.5), "us")
	o.add("scrape_us_p95", p95, "us")
	return nil
}

// env carries the run parameters every workload needs.
type env struct {
	seed    int64
	seconds time.Duration
	workers int
	// dir is this run's scratch directory inside the checkout.
	dir string
}

func main() { os.Exit(benchMain()) }

// benchMain parses the flags, runs the workload and prints the report and
// the result line; it returns the exit code.
func benchMain() int {
	workload := flag.String("workload", "", "fleet_chaos, sim_observed or wall_monitor")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	// The main goroutine keeps its thread, so threadCPU deltas taken on it
	// measure its own work.
	runtime.LockOSThread()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	e := env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		dir:     dir,
	}

	steal0 := stealTicks()
	var out outcome
	if *traced == 1 {
		out, err = layerSuite(*workload, e)
	} else {
		out, err = run(e)
	}
	steal1 := stealTicks()
	if err != nil {
		return fail(err)
	}
	steal := int64(-1)
	if steal0 >= 0 && steal1 >= 0 {
		steal = steal1 - steal0
	}
	fmt.Printf("machine: nproc=%d gomaxprocs=%d go=%s steal_ticks=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
	for _, m := range out.metrics {
		fmt.Printf("  %-44s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("attempted=%d failed=%d wrong_verdicts=%d failed_frac=%.6g\n",
		out.attempted, out.failed, out.wrong, out.failedFrac())

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{!out.broken && out.attempted > 0, out.attempted, out.failed, map[string]jsonMetric{}}
	for _, m := range out.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fail(fmt.Errorf("metric %s is not a number", m.name))
		}
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// workloads maps a workload name to its gated (untraced) run.
var workloads = map[string]func(env) (outcome, error){
	"fleet_chaos":  runFleetChaos,
	"sim_observed": runSimObserved,
	"wall_monitor": runWallMonitor,
}

// stealTicks returns the host's cumulative steal time in clock ticks from
// /proc/stat, or -1 where it is unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// median returns the median of xs (NaN when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the q-quantile of xs (nearest rank, xs sorted in place),
// refusing with an error when fewer than ten samples lie beyond it: a tail
// read off fewer samples is noise.
func tail(name string, xs []float64, q float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond < 10 {
		return 0, fmt.Errorf("%s: %d samples leave %.1f beyond the %.0fth percentile (need ≥ 10)",
			name, len(xs), beyond, 100*q)
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)], nil
}

// pctl is the q-quantile of a copy of xs, NaN when the tail has fewer than
// ten samples beyond it.
func pctl(xs []float64, q float64) float64 {
	if q == 0.5 {
		return median(append([]float64(nil), xs...))
	}
	v, err := tail("", append([]float64(nil), xs...), q)
	if err != nil {
		return nan()
	}
	return v
}

// memWindow measures heap allocations between start and stop.
type memWindow struct{ mallocs, bytes uint64 }

func startMem() memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memWindow{ms.Mallocs, ms.TotalAlloc}
}

// stop returns the allocations and bytes allocated since start.
func (w memWindow) stop() (allocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - w.mallocs), float64(ms.TotalAlloc - w.bytes)
}

// liveHeapMB forces a collection and returns the live heap in MB; the
// caller keeps its workload state reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupTimes times build n times and returns the host seconds of each. A
// single set-up of a few microseconds to milliseconds is too short to time
// once on a noisy host (and the first one in a process runs several times
// slower), so every set-up metric is the median of repeated fresh
// constructions: after one untimed warm-up, each on a freshly collected
// heap, so that none is charged the GC debt of the ones before it.
// Workloads take half of them before the measured run and half after, so
// that the median spans the run instead of one moment of host speed.
func setupTimes(n int, build func(i int)) []float64 {
	build(0)
	ts := make([]float64, n)
	for i := range ts {
		runtime.GC()
		t0 := time.Now()
		build(i)
		ts[i] = time.Since(t0).Seconds()
	}
	return ts
}

// threadCPU returns the CPU time consumed by the calling thread. Scrapes
// are timed with it, on a goroutine locked to its thread, so that a scrape
// preempted by another thread or by the hypervisor is charged only the time
// it ran.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// threadCPUOf returns the CPU time consumed so far by thread tid of this
// process, read through its Linux per-thread CPU clock.
func threadCPUOf(tid int) time.Duration {
	clock := uintptr((^tid)<<3 | 6) // MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func nan() float64 { return math.NaN() }

// keepAlive keeps a workload's state reachable up to this call, so that a
// live-heap reading taken before it includes that state.
func keepAlive(xs ...any) { runtime.KeepAlive(xs) }

// scratchPath returns a file path inside the run's scratch directory.
func (e env) scratchPath(name string) string { return filepath.Join(e.dir, name) }
