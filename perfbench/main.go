package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named benchmark input. run performs the set-up, the
// measured passes and the checks, filling b's metrics.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloadList = []workload{
	{"catalog-replay", runCatalog},
	{"eval-all", runEvalAll},
	{"traffic-timeline", runTraffic},
	{"serve-grid", runServeGrid},
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: catalog-replay, eval-all, traffic-timeline, serve-grid")
	seed := fs.Int64("seed", 0, "workload seed (0 = the built-in fixed seeds)")
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs (whole passes, at least one)")
	traced := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			wl = &workloadList[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := newBench(root, wl.name, *seed, *seconds, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.tmp)

	if err := wl.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if b.tr != nil {
		if v := b.tr.violations(); v > 0 {
			b.fail("%d spans have children covering more than the span itself", v)
		}
		if err := b.writeTrace(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if b.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operation\n", wl.name)
		return 1
	}
	b.printDigests()

	envLine, _ := json.Marshal(map[string]any{"env": b.env})
	fmt.Fprintln(stdout, string(envLine))
	out, err := json.Marshal(resultLine{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics(),
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its arguments, the tracer (nil when
// untraced), the operation and failure counts, and the measured figures.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	root     string // the checkout the benchmark runs from
	tmp      string // scratch directory under .bench_build, removed at exit
	workers  int
	log      io.Writer
	tr       *tracer
	env      envRecord

	attempted, failed int64

	e2e     endToEnd
	layers  map[string]float64 // per-layer values by metric name
	digests map[string]string  // computed digests (seed 0 gate)
}

// endToEnd collects the samples behind the end-to-end metrics.
type endToEnd struct {
	setups []float64 // seconds per set-up repetition
	passes []float64 // seconds per measured pass
	allocs []float64 // MB allocated per measured pass
	peaks  []float64 // peak resident MB per measured pass
	refs   int64     // simulated refs of executed simulations, all passes
	cold   []float64 // seconds per cold operation
	warm   []float64 // seconds per warm operation
}

func newBench(root, name string, seed int64, seconds float64, traced bool, log io.Writer) (*bench, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: name,
		seed:     seed,
		seconds:  seconds,
		root:     root,
		tmp:      tmp,
		workers:  min(2, runtime.NumCPU()),
		log:      log,
		env:      environment(root),
		layers:   make(map[string]float64),
		digests:  make(map[string]string),
	}
	if traced {
		b.tr = newTracer(fmt.Sprintf("%s-s%d-%x", name, seed, time.Now().UnixNano()))
	}
	return b, nil
}

// fail records one failed operation with its reason.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.log, "perfbench: %s: FAIL: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// check fails one operation unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.fail(format, args...)
	}
}

// op counts one attempted operation and fails it on error.
func (b *bench) op(err error) bool {
	b.attempted++
	if err != nil {
		b.fail("%v", err)
		return false
	}
	return true
}

// more reports whether the measured phase goes on: until its passes
// have taken --seconds, and for at least minPasses passes.
func (b *bench) more(minPasses int) bool {
	var sum float64
	for _, p := range b.e2e.passes {
		sum += p
	}
	return len(b.e2e.passes) < minPasses || sum < b.seconds
}

// setupReps is how many times an untraced run repeats its set-up to
// report a median; a traced run sets up once.
func (b *bench) setupReps(n int) int {
	if b.tr != nil {
		return 1
	}
	return n
}

// passCost is what one measured pass took.
type passCost struct {
	sec     float64 // wall-clock
	allocMB float64 // heap allocated
	peakMB  float64 // peak resident set
}

// measure times fn as one measured pass. Every pass starts from the same
// state: a collection that also returns freed memory to the OS, so
// neither the collector's pacing nor the resident set carries over
// between passes, and a reset of the kernel's peak-RSS mark.
func measure(fn func()) passCost {
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	fn()
	sec := time.Since(t).Seconds()
	runtime.ReadMemStats(&m1)
	return passCost{sec, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), peakRSSMB()}
}

// pass runs fn as one measured pass and records it.
func (b *bench) pass(fn func()) float64 {
	c := measure(fn)
	b.e2e.passes = append(b.e2e.passes, c.sec)
	b.e2e.allocs = append(b.e2e.allocs, c.allocMB)
	b.e2e.peaks = append(b.e2e.peaks, c.peakMB)
	fmt.Fprintf(b.log, "perfbench: %s: pass %d: %.4fs, %.1f MB allocated, %.1f MB peak RSS\n",
		b.workload, len(b.e2e.passes), c.sec, c.allocMB, c.peakMB)
	return c.sec
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current resident set. Where the kernel refuses, the mark stays the
// process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the peak resident set since the last reset, falling
// back to getrusage's whole-process peak.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure; Linux always fills it
	return float64(ru.Maxrss) / 1024
}

// setup runs fn as one set-up repetition and records its time.
func (b *bench) setup(fn func() error) error {
	runtime.GC()
	t := time.Now()
	err := fn()
	b.e2e.setups = append(b.e2e.setups, time.Since(t).Seconds())
	return err
}

// metrics renders the run's metrics: the end-to-end set untraced, the
// per-layer set traced.
func (b *bench) metrics() map[string]metric {
	out := make(map[string]metric)
	if b.tr != nil {
		for _, l := range layerMetrics {
			out[l.name] = metric{b.layers[l.name], l.unit}
		}
		return out
	}
	e := b.e2e
	var sum float64
	for _, p := range e.passes {
		sum += p
	}
	refsPerS := 0.0
	if sum > 0 {
		refsPerS = float64(e.refs) / sum
	}
	out["wall_s"] = metric{median(e.passes), "s"}
	out["refs_per_s"] = metric{refsPerS, "refs/s"}
	out["setup_s"] = metric{median(e.setups), "s"}
	out["alloc_mb"] = metric{median(e.allocs), "MB"}
	out["max_rss_mb"] = metric{median(e.peaks), "MB"}
	out["cold_job_s"] = metric{median(e.cold), "s"}
	out["warm_job_s"] = metric{median(e.warm), "s"}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
