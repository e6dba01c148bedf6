// Command paperbench runs the paper's three applications as closed-loop
// workloads through the kernel's public API, checks their outputs, and
// prints one JSON result line:
//
//   - itinerary: a freshly signed StormCast collector visits three guarded
//     sensor sites over TCP loopback and comes home with their summaries;
//   - courier: durable meets append batches to WAL-backed mailboxes while a
//     replication follower ships the log;
//   - resident: mail deposits wake parked StormCast residents, which fold
//     each observation into a cabinet summary and park again.
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it runs an
// untraced and a traced window back to back and prints the per-layer
// metrics measured by wrapping the interfaces the kernel accepts.
//
// Usage (from the repository root, see run.sh):
//
//	paperbench --workload itinerary --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times an untraced run builds its workload: setup_s
// is their median, and the last set-up is the one measured.
const setupRuns = 5

// drainTimeout bounds the wait for ops still outstanding when the window
// closes; an op not complete by then fails.
const drainTimeout = 2 * time.Second

// workload is one application set up for a closed loop.
type workload interface {
	// loop drives the closed loop from the given number of clients until
	// the deadline passes or maxOps ops have been sent (0: no limit),
	// then drains outstanding ops.
	loop(w *window, deadline time.Time, maxOps int64, clients int)
	// clients is the closed loop's client count, in a traced window when
	// traced is set.
	clients(traced bool) int
	// trace installs the timing wrappers; spans are recorded while tr.on.
	trace(tr *tracer)
	// counters returns the cumulative layer counters the per-layer metrics
	// are deltas of.
	counters() map[string]float64
	// settle waits for background work the set-up left running.
	settle() error
	// finish stops the load and runs the end-of-run output checks.
	finish() error
	// synthesize completes the raw spans before they are grouped by op:
	// it attributes spans that carry no op id where the workload can, and
	// adds spans built from stamps.
	synthesize(spans []span) []span
	// layers adds the workload's own per-layer metrics.
	layers(m map[string]float64)
	// info describes the run for the human-readable line.
	info() string
	close()
}

type setupFunc func(seed int64, dir string) (workload, error)

var workloads = map[string]setupFunc{
	"itinerary": newItinerary,
	"courier":   newCourier,
	"resident":  newResident,
}

// window accumulates one measured window's op outcomes.
type window struct {
	tr        *tracer // nil when untraced
	lats      []int64 // ns, completed ops
	attempted int64
	failed    int64
	// explained counts failed ops the workload traces to a known defect it
	// reports (the park lost-wake race); other failures make a run
	// incorrect.
	explained int64
	firstErr  error
	start     time.Time
	last      time.Time // latest completion
}

func (w *window) done(lat time.Duration, at time.Time) {
	w.lats = append(w.lats, int64(lat))
	if at.After(w.last) {
		w.last = at
	}
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *window) merge(o *window) {
	w.lats = append(w.lats, o.lats...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.explained += o.explained
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	if o.last.After(w.last) {
		w.last = o.last
	}
}

func (w *window) throughput() float64 {
	el := w.last.Sub(w.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(len(w.lats)) / el
}

// loopClock paces a closed loop driven from one goroutine: it sends ops
// while the window is open and the op budget lasts (maxOps 0: no budget),
// then allows drainTimeout for the ops still outstanding.
type loopClock struct {
	deadline time.Time
	maxOps   int64
	sent     int64
	drainEnd time.Time
	timer    *time.Timer
}

func newLoopClock(deadline time.Time, maxOps int64) *loopClock {
	return &loopClock{deadline: deadline, maxOps: maxOps, timer: time.NewTimer(time.Hour)}
}

func (c *loopClock) sending() bool {
	return time.Now().Before(c.deadline) && (c.maxOps == 0 || c.sent < c.maxOps)
}

// arm returns a channel that fires when the loop must look again: at the
// deadline while still sending, else when the drain's time is up.
func (c *loopClock) arm() <-chan time.Time {
	wait := time.Until(c.deadline)
	if !c.sending() {
		if c.drainEnd.IsZero() {
			c.drainEnd = time.Now().Add(drainTimeout)
		}
		wait = time.Until(c.drainEnd)
	}
	c.timer.Stop()
	c.timer.Reset(max(wait, 0))
	return c.timer.C
}

// drained reports whether the drain's time is up.
func (c *loopClock) drained() bool {
	return !c.drainEnd.IsZero() && !time.Now().Before(c.drainEnd)
}

func (c *loopClock) stop() { c.timer.Stop() }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "itinerary, courier or resident")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "paperbench: usage: --workload itinerary|courier|resident --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
	window := time.Duration(*seconds) * time.Second
	var res result
	if *traceFlag == 1 {
		res, err = runTraced(*name, setup, *seed, dir, window)
	} else {
		res, err = runMeasured(*name, setup, *seed, dir, window)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupOnce builds the workload and warms it with warmOps untimed ops. It
// returns how many warm-up ops failed; they are reported, not measured. A
// warm-up in which nothing completes is an error.
func setupOnce(setup setupFunc, seed int64, dir string, warmOps int64) (workload, time.Duration, int64, error) {
	t0 := time.Now()
	wl, err := setup(seed, dir)
	if err != nil {
		return nil, 0, 0, err
	}
	w := &window{start: time.Now()}
	wl.loop(w, time.Now().Add(time.Minute), warmOps, wl.clients(false))
	if len(w.lats) == 0 {
		wl.close()
		return nil, 0, 0, fmt.Errorf("warm-up: no op completed: %v", w.firstErr)
	}
	return wl, time.Since(t0), w.failed, nil
}

// warmOps is the untimed op count that fills caches (script cache, wire
// delta caches, connections, scheduler workers) before a window opens.
const warmOps = 500

// runMeasured is the untraced run: setupRuns builds, then one window.
func runMeasured(name string, setup setupFunc, seed int64, dir string, d time.Duration) (result, error) {
	var setups []float64
	var wl workload
	var warmFailed int64
	for i := 0; i < setupRuns; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		next, took, failed, err := setupOnce(setup, seed, sub, warmOps)
		if err != nil {
			return result{}, err
		}
		warmFailed += failed
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			next.close()
			continue
		}
		wl = next
	}
	defer wl.close()
	if err := wl.settle(); err != nil {
		return result{}, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMiB := float64(ms.HeapAlloc) / (1 << 20)
	mallocs0 := ms.Mallocs

	w := &window{start: time.Now()}
	wl.loop(w, w.start.Add(d), 0, wl.clients(false))
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs - mallocs0
	checkErr := wl.finish()

	lats := sortedCopy(w.lats)
	ops := float64(len(lats))
	res := result{Correct: checkErr == nil && w.failed == w.explained, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	if len(lats) == 0 {
		return result{}, fmt.Errorf("no op completed (first error: %v)", w.firstErr)
	}
	values := map[string]float64{
		"throughput_ops_s": w.throughput(),
		"latency_p50_us":   float64(percentile(lats, 50)) / 1e3,
		"latency_p90_us":   float64(percentile(lats, 90)) / 1e3,
		"allocs_per_op":    float64(mallocs) / ops,
		"heap_mb":          heapMiB,
		"setup_s":          median(setups),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}

	fmt.Printf("# paperbench workload=%s seed=%d %s window_s=%.0f ops=%d error_rate=%.6f latency_p99_us=%.1f setups_s=%s warmup_failed=%d %s\n",
		name, seed, machine(dir), d.Seconds(), len(lats), float64(w.failed)/float64(max(w.attempted, 1)),
		float64(percentile(lats, 99))/1e3, fmtFloats(setups), warmFailed, wl.info())
	if w.firstErr != nil {
		fmt.Printf("# first failure: %v\n", w.firstErr)
	}
	if checkErr != nil {
		fmt.Printf("# output check failed: %v\n", checkErr)
	}
	return res, nil
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"allocs_per_op", "allocs"},
	{"heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics with their units; every one is
// printed for every workload, 0 where the workload bypasses the layer.
var perLayer = []struct{ name, unit string }{
	{"vnet.calls_per_op", "calls"},
	{"vnet.bytes_per_op", "B"},
	{"vnet.transport_self_us", "us"},
	{"core.serve_self_us", "us"},
	{"core.rexec_self_us", "us"},
	{"core.wire.ref_share", "ratio"},
	{"core.wire.misses_per_op", "misses"},
	{"core.meet_self_us", "us"},
	{"core.park.cont_bytes", "B"},
	{"core.park.late_wakes", "count"},
	{"guard.arrival_us", "us"},
	{"guard.self_us_per_op", "us"},
	{"guard.checks_per_op", "checks"},
	{"guard.refusals", "count"},
	{"tacl.activations_per_op", "activations"},
	{"tacl.activation_self_us", "us"},
	{"tacl.steps_per_op", "steps"},
	{"sched.queue_wait_us", "us"},
	{"sched.steals_per_op", "steals"},
	{"sched.submitted_per_op", "tasks"},
	{"store.sync_us", "us"},
	{"store.sync_share", "ratio"},
	{"store.records_per_op", "records"},
	{"store.records_per_sync", "records"},
	{"repl.shipped_bytes_per_op", "B"},
	{"repl.lag_bytes_p90", "B"},
	{"repl.errors", "count"},
	{"mail.deposit_us", "us"},
	{"stormcast.sensor_us", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.bytes_per_op", "B"},
	{"unattributed_us", "us"},
	{"trace.overhead", "ratio"},
}

// runTraced sets up once, measures an untraced window and then a traced
// one, each half the run, with the traced window's client count, and
// derives the per-layer metrics from the traced window.
func runTraced(name string, setup setupFunc, seed int64, dir string, d time.Duration) (result, error) {
	wl, _, warmFailed, err := setupOnce(setup, seed, dir, warmOps)
	if err != nil {
		return result{}, err
	}
	defer wl.close()
	clients := wl.clients(true)
	half := d / 2

	base := &window{start: time.Now()}
	wl.loop(base, base.start.Add(half), 0, clients)

	tr := newTracer()
	wl.trace(tr)
	c0 := wl.counters()
	g0 := readCPU()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w := &window{tr: tr, start: time.Now()}
	tr.on.Store(true)
	wl.loop(w, w.start.Add(half), 0, clients)
	tr.on.Store(false)
	runtime.ReadMemStats(&ms1)
	g1 := readCPU()
	c1 := wl.counters()
	checkErr := wl.finish()

	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	spans = wl.synthesize(spans)
	ops, lost := group(spans)
	var partitionErr error
	for _, ot := range ops {
		ot.analyze()
		sum := ot.unattributed
		for _, s := range ot.self {
			sum += s
		}
		if sum != ot.root.end-ot.root.start && partitionErr == nil {
			partitionErr = fmt.Errorf("op %d: self times sum to %d ns, latency is %d ns", ot.op, sum, ot.root.end-ot.root.start)
		}
	}
	n := float64(len(w.lats))
	if n == 0 {
		return result{}, fmt.Errorf("no op completed in the traced window (first error: %v)", w.firstErr)
	}
	m := spanMetrics(ops)
	delta := func(k string) float64 { return c1[k] - c0[k] }
	perOp := func(k string) float64 { return delta(k) / n }
	m["vnet.calls_per_op"] = perOp("vnet.calls")
	m["vnet.bytes_per_op"] = perOp("vnet.bytes")
	if refs, full := delta("wire.ref"), delta("wire.full"); refs+full > 0 {
		m["core.wire.ref_share"] = refs / (refs + full)
	}
	m["core.wire.misses_per_op"] = perOp("wire.misses")
	m["guard.checks_per_op"] = perOp("guard.checks")
	m["guard.refusals"] = delta("guard.refusals")
	m["tacl.activations_per_op"] = perOp("tacl.activations")
	m["tacl.steps_per_op"] = perOp("tacl.steps")
	m["sched.steals_per_op"] = perOp("sched.steals")
	m["sched.submitted_per_op"] = perOp("sched.submitted")
	m["store.records_per_op"] = perOp("store.records")
	if syncs := delta("store.syncs"); syncs > 0 {
		m["store.records_per_sync"] = delta("store.records") / syncs
	}
	m["repl.shipped_bytes_per_op"] = perOp("repl.shipped")
	m["repl.errors"] = c1["repl.errors"]
	if cpu := g1.total - g0.total; cpu > 0 {
		m["runtime.gc_cpu_share"] = (g1.gc - g0.gc) / cpu
	}
	m["runtime.bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	if bt := base.throughput(); bt > 0 {
		m["trace.overhead"] = w.throughput()/bt - 1
	}
	wl.layers(m)

	res := result{Correct: checkErr == nil && partitionErr == nil && w.failed == w.explained,
		Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	tracePath := filepath.Join(".bench_build", "trace-"+name+".tsv")
	if err := writeSpans(tracePath, ops); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# paperbench workload=%s seed=%d %s traced clients=%d traced_ops=%d untraced_ops=%d warmup_failed=%d spans=%d unowned_spans=%d spans_file=%s %s\n",
		name, seed, machine(dir), clients, len(w.lats), len(base.lats), warmFailed, len(spans), lost, tracePath, wl.info())
	for _, e := range []struct {
		what string
		err  error
	}{{"first failure", w.firstErr}, {"output check failed", checkErr}, {"self-time partition failed", partitionErr}} {
		if e.err != nil {
			fmt.Printf("# %s: %v\n", e.what, e.err)
		}
	}
	return res, nil
}

// spanMetrics derives the span-based per-layer metrics: medians of span
// durations or self times across spans, and per-op means of self times
// within each op's latency.
func spanMetrics(ops []*opTrace) map[string]float64 {
	durs := map[string][]int64{}
	selfs := map[string][]int64{}
	var guardSelf, unattributed, syncSelf, latency int64
	for _, ot := range ops {
		for i, s := range ot.spans {
			durs[s.name] = append(durs[s.name], s.end-s.start)
			selfs[s.name] = append(selfs[s.name], ot.fullSelf[i])
			if strings.HasPrefix(s.name, "guard.") {
				guardSelf += ot.self[i]
			}
			if s.name == spanSync {
				syncSelf += ot.self[i]
			}
		}
		unattributed += ot.unattributed
		latency += ot.root.end - ot.root.start
	}
	p50 := func(v []int64) float64 { return float64(percentile(sortedCopy(v), 50)) / 1e3 }
	m := map[string]float64{
		"vnet.transport_self_us":  p50(selfs[spanCall]),
		"core.serve_self_us":      p50(selfs[spanServe]),
		"core.rexec_self_us":      p50(selfs[spanRexec]),
		"core.meet_self_us":       p50(selfs[spanMeet]),
		"tacl.activation_self_us": p50(selfs[spanTacl]),
		"guard.arrival_us":        p50(durs[spanArrival]),
		"sched.queue_wait_us":     p50(durs[spanQueue]),
		"store.sync_us":           p50(durs[spanSync]),
		"mail.deposit_us":         p50(durs[spanDeposit]),
		"stormcast.sensor_us":     p50(durs[spanSensor]),
	}
	if n := float64(len(ops)); n > 0 {
		m["guard.self_us_per_op"] = float64(guardSelf) / n / 1e3
		m["unattributed_us"] = float64(unattributed) / n / 1e3
	}
	if latency > 0 {
		m["store.sync_share"] = float64(syncSelf) / float64(latency)
	}
	return m
}

type cpuSample struct{ gc, total float64 }

// readCPU reads the runtime's cumulative GC and total CPU-seconds.
func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// machine records what the numbers depend on: CPU count, GOMAXPROCS, the
// Go version and the filesystem the run's files, the courier's WAL among
// them, sit on.
func machine(dir string) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s wal_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = fmt.Sprintf("%.3f", f)
	}
	return strings.Join(parts, ",")
}
