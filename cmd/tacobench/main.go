// Command tacobench is the meet-path load generator: it drives local,
// cabinet-backed, remote (TCP loopback), guarded, parked-agent wakeup, and
// mixed meet workloads at a configurable concurrency and emits a
// machine-readable BENCH_meet.json with throughput, latency percentiles,
// and allocation counts per workload.
//
// CI runs it on every push and compares the result against the committed
// baseline with scripts/benchdiff.go, failing the build when meet throughput
// regresses by more than the threshold (see README.md § Performance).
//
// Usage:
//
//	tacobench [-modes local,cabinet,remote,guarded,script,mixed] [-concurrency N]
//	          [-duration 2s] [-payload 64] [-out BENCH_meet.json] [-v]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	tacoma "repro"
	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/vnet"
)

// Result is the measurement of one workload.
type Result struct {
	Name        string  `json:"name"`
	Concurrency int     `json:"concurrency"`
	DurationNs  int64   `json:"duration_ns"`
	Ops         int64   `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Report is the BENCH_meet.json document.
type Report struct {
	Schema     string   `json:"schema"`
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []Result `json:"benchmarks"`
}

// ReportSchema identifies the BENCH_meet.json format version.
const ReportSchema = "tacoma-bench/v1"

func main() {
	// All failure paths return through run() rather than os.Exit-ing in
	// place, so the profile-finalizing defers always fire and a failed CI
	// run still uploads usable pprof artifacts.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tacobench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modes       = flag.String("modes", "local,cabinet,remote,guarded,script,hop,durable,durable-naive,replicated,mixed,parked,fleet,fleet-lookup,fleet-converge", "comma-separated workloads to run")
		concurrency = flag.Int("concurrency", 2*runtime.GOMAXPROCS(0), "concurrent client goroutines per workload")
		duration    = flag.Duration("duration", 2*time.Second, "measurement window per workload")
		payload     = flag.Int("payload", 64, "briefcase payload element size in bytes")
		fleetSites  = flag.Int("fleet-sites", 10, "fleet lanes: number of meshed in-process sites")
		fleetAgents = flag.Int("fleet-agents", 100000, "fleet lanes: resident agent population across the fleet")
		parkedPop   = flag.Int("parked-agents", 100000, "parked lane: idle parked-agent population at the measured site")
		scriptSrc   = flag.String("script-src", "", "file whose contents replace the built-in script-lane workload (default: core.ScriptWorkloadSrc)")
		cpus        = flag.String("cpus", "", "comma-separated GOMAXPROCS values (e.g. 1,2,4,8); runs the whole mode list once per value, one report per value")
		out         = flag.String("out", "BENCH_meet.json", "output path for the JSON report ('-' for stdout); a -cpus sweep inserts .cpuN before the extension")
		verbose     = flag.Bool("v", false, "print per-workload results as they finish")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile covering all workloads to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	// pprof per run, so a lane regression in CI is diagnosable from the
	// uploaded artifact instead of needing a local repro.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tacobench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "tacobench: memprofile: %v\n", err)
			}
		}()
	}

	opts := benchOpts{
		concurrency: *concurrency,
		duration:    *duration,
		payload:     *payload,
		fleetSites:  *fleetSites,
		fleetAgents: *fleetAgents,
		parkedPop:   *parkedPop,
	}
	if *scriptSrc != "" {
		src, err := os.ReadFile(*scriptSrc)
		if err != nil {
			return fmt.Errorf("script-src: %w", err)
		}
		opts.scriptSrc = string(src)
	}

	// A -cpus sweep runs the whole mode list once per GOMAXPROCS setting
	// and emits one Report per setting, so scaling (and its first
	// contention point) is a diff between files, not a guess.
	sweep := []int{0} // 0 = leave GOMAXPROCS alone
	if *cpus != "" {
		sweep = sweep[:0]
		for _, c := range strings.Split(*cpus, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -cpus entry %q", c)
			}
			sweep = append(sweep, n)
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range sweep {
		if procs > 0 {
			runtime.GOMAXPROCS(procs)
			if *verbose {
				fmt.Fprintf(os.Stderr, "--- GOMAXPROCS=%d ---\n", procs)
			}
		}
		report := Report{
			Schema:     ReportSchema,
			Go:         runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		}
		for _, mode := range strings.Split(*modes, ",") {
			mode = strings.TrimSpace(mode)
			if mode == "" {
				continue
			}
			res, err := runMode(mode, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", mode, err)
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "%-14s %9.0f ops/sec  p50 %7dns  p99 %7dns  %6.1f allocs/op\n",
					res.Name, res.OpsPerSec, res.P50Ns, res.P99Ns, res.AllocsPerOp)
			}
			report.Benchmarks = append(report.Benchmarks, res)
		}
		if err := writeReport(report, *out, *cpus != "", report.GOMAXPROCS); err != nil {
			return err
		}
	}
	return nil
}

// writeReport emits one report; a -cpus sweep tags the output path with the
// GOMAXPROCS value so each setting gets its own file.
func writeReport(report Report, out string, sweep bool, procs int) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return nil
	}
	if sweep {
		ext := ""
		if i := strings.LastIndex(out, "."); i > 0 {
			out, ext = out[:i], out[i:]
		}
		out = fmt.Sprintf("%s.cpu%d%s", out, procs, ext)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", out, err)
	}
	return nil
}

// op is one client operation; worker identifies the issuing goroutine so
// workloads can give each client private state (briefcases are single-owner).
type op func(worker int) error

// workload couples per-worker ops with the teardown for their fixtures.
type workload struct {
	op      op
	cleanup func()
	// stats, when non-nil, renders a one-line workload summary after the
	// measured run (the durable lanes report the WAL's group-commit batch
	// histogram). Printed to stderr so JSON output stays machine-parseable.
	stats func() string
	// concurrency, when non-zero, pins the workload's worker count
	// regardless of the -concurrency flag. The durable lanes use it: group
	// commit is a concurrency phenomenon, and the committed baseline's
	// numbers are only meaningful at the concurrency they were measured at.
	concurrency int
}

// benchOpts carries the sizing flags to workload builders.
type benchOpts struct {
	concurrency int
	duration    time.Duration
	payload     int
	fleetSites  int
	fleetAgents int
	parkedPop   int
	// scriptSrc, when non-empty, replaces the script lane's built-in
	// workload (-script-src). testdata/heavy.tacl is the committed
	// proc-and-cabinet-heavy alternative.
	scriptSrc string
}

// runMode builds the named workload and measures it.
func runMode(mode string, o benchOpts) (Result, error) {
	if mode == "fleet-converge" {
		// Convergence is not an op/sec workload: trials drive the protocol
		// in simulated time and the samples are simulated durations.
		return fleetConverge(o.fleetSites, o.duration)
	}
	w, err := buildWorkload(mode, o)
	if err != nil {
		return Result{}, err
	}
	if w.cleanup != nil {
		defer w.cleanup()
	}
	concurrency := o.concurrency
	if w.concurrency > 0 {
		concurrency = w.concurrency
	}
	res, err := measure(mode, concurrency, o.duration, w.op)
	if err == nil && w.stats != nil {
		fmt.Fprintf(os.Stderr, "tacobench: %s: %s\n", mode, w.stats())
	}
	return res, err
}

func buildWorkload(mode string, o benchOpts) (workload, error) {
	concurrency, payload := o.concurrency, o.payload
	switch mode {
	case "local":
		return localWorkload(concurrency, payload), nil
	case "cabinet":
		return cabinetWorkload(concurrency, payload), nil
	case "remote":
		return remoteWorkload(concurrency, payload)
	case "guarded":
		return guardedWorkload(concurrency, payload)
	case "script":
		return scriptWorkload(concurrency, payload, o.scriptSrc), nil
	case "hop":
		return hopWorkload(concurrency, payload)
	case "durable":
		return durableWorkload(payload, false, false)
	case "durable-naive":
		return durableWorkload(payload, true, false)
	case "replicated":
		return durableWorkload(payload, false, true)
	case "parked":
		return parkedWorkload(o.parkedPop, concurrency, payload)
	case "fleet":
		return fleetWorkload(o.fleetSites, o.fleetAgents, concurrency, payload)
	case "fleet-lookup":
		return fleetLookupWorkload(o.fleetSites, o.fleetAgents)
	case "mixed":
		local := localWorkload(concurrency, payload)
		cabinet := cabinetWorkload(concurrency, payload)
		remote, err := remoteWorkload(concurrency, payload)
		if err != nil {
			return workload{}, err
		}
		ops := []op{local.op, cabinet.op, remote.op}
		var turn atomic.Int64
		return workload{
			op: func(worker int) error {
				return ops[int(turn.Add(1))%len(ops)](worker)
			},
			cleanup: remote.cleanup,
		}, nil
	default:
		return workload{}, fmt.Errorf("unknown mode %q (want local, cabinet, remote, guarded, script, hop, durable, durable-naive, replicated, parked, fleet, fleet-lookup, fleet-converge, or mixed)", mode)
	}
}

// localWorkload: pure dispatch against a no-op agent, one briefcase per
// worker carrying one payload element.
func localWorkload(concurrency, payload int) workload {
	sys := tacoma.NewSystem(1, tacoma.SystemConfig{Seed: 1})
	site := sys.SiteAt(0)
	site.Register("noop", tacoma.AgentFunc(
		func(*tacoma.MeetContext, *tacoma.Briefcase) error { return nil }))
	bcs := workerBriefcases(concurrency, payload)
	return workload{op: func(worker int) error {
		return site.Meet(context.Background(), "noop", bcs[worker])
	}}
}

// cabinetWorkload: the realistic service meet — argument read, cabinet visit
// record, snapshot of a 256-element site folder handed back via the
// briefcase.
func cabinetWorkload(concurrency, payload int) workload {
	sys := tacoma.NewSystem(1, tacoma.SystemConfig{Seed: 1})
	site := sys.SiteAt(0)
	elem := make([]byte, payload)
	for i := 0; i < 256; i++ {
		site.Cabinet().Append("DATA", elem)
	}
	site.Register("visit", tacoma.AgentFunc(
		func(mc *tacoma.MeetContext, bc *tacoma.Briefcase) error {
			id, err := bc.GetString("REQ")
			if err != nil {
				return err
			}
			mc.Site.Cabinet().TestAndAppendString("SEEN", id)
			bc.Put(tacoma.ResultFolder, mc.Site.Cabinet().Snapshot("DATA"))
			return nil
		}))
	bcs := workerBriefcases(concurrency, payload)
	for i, bc := range bcs {
		bc.PutString("REQ", fmt.Sprintf("client-%d", i))
	}
	return workload{op: func(worker int) error {
		return site.Meet(context.Background(), "visit", bcs[worker])
	}}
}

// remoteWorkload: meets across two real TCP endpoints on loopback, so the
// measurement includes codec, framing, and the pipelined connection.
func remoteWorkload(concurrency, payload int) (workload, error) {
	epA, err := tacoma.NewTCPEndpoint("bench-a", "127.0.0.1:0")
	if err != nil {
		return workload{}, err
	}
	epB, err := tacoma.NewTCPEndpoint("bench-b", "127.0.0.1:0")
	if err != nil {
		epA.Close()
		return workload{}, err
	}
	epA.AddPeer("bench-b", epB.Addr())
	epB.AddPeer("bench-a", epA.Addr())
	siteA := tacoma.NewSite(epA, tacoma.SiteConfig{})
	siteB := tacoma.NewSite(epB, tacoma.SiteConfig{})
	siteB.Register("noop", tacoma.AgentFunc(
		func(*tacoma.MeetContext, *tacoma.Briefcase) error { return nil }))
	bcs := workerBriefcases(concurrency, payload)
	return workload{
		op: func(worker int) error {
			return siteA.Meet(context.Background(), "noop", bcs[worker], core.At("bench-b"))
		},
		cleanup: func() { epA.Close(); epB.Close() },
	}, nil
}

// guardedWorkload: the accountability path — a firewall-free guarded site
// enforcing a capability ACL against signed briefcases.
func guardedWorkload(concurrency, payload int) (workload, error) {
	sys := tacoma.NewSystem(1, tacoma.SystemConfig{Seed: 1})
	site := sys.SiteAt(0)
	site.Register("visit", tacoma.AgentFunc(
		func(*tacoma.MeetContext, *tacoma.Briefcase) error { return nil }))
	keys := tacoma.NewKeyring()
	keys.Enroll("bench-client")
	policy := tacoma.NewPolicy()
	policy.Grant("bench-client", tacoma.Capability{Meet: []string{"visit"}})
	tacoma.InstallGuard(site, tacoma.NewGuard(policy, keys))
	bcs := workerBriefcases(concurrency, payload)
	for _, bc := range bcs {
		if err := tacoma.SignBriefcase(keys, "bench-client", bc, "PAYLOAD"); err != nil {
			return workload{}, err
		}
	}
	return workload{op: func(worker int) error {
		return site.Meet(context.Background(), "visit", bcs[worker])
	}}, nil
}

// scriptWorkload: the scripted-agent meet — each op pushes the workload
// script (by default core.ScriptWorkloadSrc, the same constant
// BenchmarkScriptedMeet runs, so the CI gate and the Go benchmark measure
// one workload; -script-src substitutes any file) onto CODE and meets
// ag_tacl, exercising the bytecode cache, the pooled interpreter, and the
// shared host-command table under concurrency.
func scriptWorkload(concurrency, payload int, src string) workload {
	if src == "" {
		src = core.ScriptWorkloadSrc
	}
	sys := tacoma.NewSystem(1, tacoma.SystemConfig{Seed: 1})
	site := sys.SiteAt(0)
	bcs := workerBriefcases(concurrency, payload)
	return workload{op: func(worker int) error {
		bc := bcs[worker]
		bc.Ensure(tacoma.CodeFolder).PushString(src)
		return site.Meet(context.Background(), tacoma.AgTacl, bc)
	}}
}

// hopScript is the itinerary agent the hop lane launches: at each station
// it records the site in its TRAIL, then jumps to the next HOPS entry. The
// briefcase accretes one result per hop; CODE is restored before each jump
// and SIG is frozen at launch, so both stay byte-identical across the whole
// itinerary — the workload wire protocol v2's content-addressed deltas are
// built for.
const hopScript = `
set mission "multi-hop itinerary benchmark: record each station, then home"
bc_push TRAIL [host]
if {[bc_len HOPS] > 0} {
	set next [bc_dequeue HOPS]
	jump $next
}
bc_push TRAIL done
`

// hopWorkload: the paper's actual workload — a signed mobile agent carrying
// its briefcase through a multi-hop TCP itinerary. Each op launches a
// freshly signed agent at site hop-0 that jumps hop-1 → hop-2 → hop-3,
// accreting a TRAIL entry per station; the op completes when the nested
// meet chain unwinds back to the launcher. After the first itinerary warms
// the per-link caches, SIG and CODE cross every link as 32-byte refs.
func hopWorkload(concurrency, payload int) (workload, error) {
	const nsites = 4
	eps := make([]*vnet.TCPEndpoint, 0, nsites)
	cleanup := func() {
		for _, ep := range eps {
			ep.Close()
		}
	}
	sites := make([]*tacoma.Site, 0, nsites)
	for i := 0; i < nsites; i++ {
		ep, err := tacoma.NewTCPEndpoint(tacoma.SiteID(fmt.Sprintf("hop-%d", i)), "127.0.0.1:0")
		if err != nil {
			cleanup()
			return workload{}, err
		}
		eps = append(eps, ep)
	}
	for i, ep := range eps {
		for j, other := range eps {
			if i != j {
				ep.AddPeer(other.ID(), other.Addr())
			}
		}
		sites = append(sites, tacoma.NewSite(ep, tacoma.SiteConfig{Seed: int64(i + 1)}))
	}
	keys := tacoma.NewKeyring()
	keys.Enroll("hop-bench")

	itinerary := []string{"hop-1", "hop-2", "hop-3"}
	elem := make([]byte, payload)
	return workload{
		op: func(worker int) error {
			bc, err := tacoma.SignedScript(keys, "hop-bench", "", hopScript, nil)
			if err != nil {
				return err
			}
			f := tacoma.NewFolder()
			for _, h := range itinerary {
				f.PushString(h)
			}
			bc.Put("HOPS", f)
			p := tacoma.NewFolder()
			p.Push(elem)
			bc.Put("PAYLOAD", p)
			if err := tacoma.LaunchSigned(context.Background(), sites[0], bc); err != nil {
				return err
			}
			if trail, err := bc.Folder("TRAIL"); err != nil || trail.Len() != len(itinerary)+2 {
				return fmt.Errorf("hop: TRAIL has %v stations (err %v), want %d", trail, err, len(itinerary)+2)
			}
			return nil
		},
		cleanup: cleanup,
	}, nil
}

// Durable-lane shape: worker count is pinned (group commit batches across
// concurrent meets, so the measurement is only meaningful at a fixed
// concurrency) and every meet delivers a batch of elements, the paper's
// courier pattern — one durability barrier amortizes over the batch AND
// over the other workers' concurrent barriers.
const (
	durableConcurrency = 8
	durableBatch       = 8
)

// durableWorkload is the WAL-backed cabinet meet: each op meets "deliver",
// which appends the briefcase's 8-element WORK batch to the worker's
// mailbox folder, records the visit, and drains the mailbox FIFO once it
// exceeds 1k elements — all journaled, with one group-committed fdatasync
// barrier per meet. naive switches the WAL to fsync-per-mutation, the
// baseline the group-commit design exists to beat (see DESIGN.md § Durable
// cabinets for the measured gap). replicated attaches a repl follower (its
// own fdatasynced replica directory) shipping in the background, measuring
// what WAL shipping costs the durable meet path — asynchronous shipping
// means the answer should be "disk contention only", and the lane proves
// or disproves that.
func durableWorkload(payload int, naive, replicated bool) (workload, error) {
	dir, err := os.MkdirTemp("", "tacobench-wal-")
	if err != nil {
		return workload{}, err
	}
	elem := make([]byte, payload)

	// Pre-fill every mailbox to the drain threshold through a sync-free WAL
	// generation, so the measured run is in steady state (append + drain,
	// 17 records per op) from its first op — and so the measured WAL boots
	// through a real recovery replay of that generation.
	pcab := tacoma.NewFileCabinet()
	prefill, err := tacoma.OpenWAL(dir, pcab, tacoma.WALOptions{NoSync: true})
	if err != nil {
		os.RemoveAll(dir)
		return workload{}, err
	}
	for i := 0; i < durableConcurrency; i++ {
		for j := 0; j < 1024; j++ {
			pcab.Append(fmt.Sprintf("MBOX:w%d", i), elem)
		}
	}
	if err := prefill.Close(); err != nil {
		os.RemoveAll(dir)
		return workload{}, err
	}

	sys := tacoma.NewSystem(1, tacoma.SystemConfig{Seed: 1})
	site := sys.SiteAt(0)
	wal, err := tacoma.OpenWAL(dir, site.Cabinet(), tacoma.WALOptions{SyncEveryRecord: naive})
	if err != nil {
		os.RemoveAll(dir)
		return workload{}, err
	}
	site.SetDurable(wal)
	site.Register("deliver", tacoma.AgentFunc(
		func(mc *tacoma.MeetContext, bc *tacoma.Briefcase) error {
			req, err := bc.GetString("REQ")
			if err != nil {
				return err
			}
			client, err := bc.GetString("CLIENT")
			if err != nil {
				return err
			}
			work, err := bc.Folder("WORK")
			if err != nil {
				return err
			}
			cab := mc.Site.Cabinet()
			mbox := "MBOX:" + client
			for i := 0; i < work.Len(); i++ {
				cab.Append(mbox, work.RawAt(i))
			}
			cab.TestAndAppendString("SEEN", req)
			if cab.FolderLen(mbox) > 1024 {
				for i := 0; i < work.Len(); i++ {
					if _, err := cab.Dequeue(mbox); err != nil {
						return err
					}
				}
			}
			return nil
		}))

	// The replicated lane attaches a follower with its own fdatasynced
	// replica directory on a private two-node sim net (shipping is a lane
	// RPC; it needs a wire, not the meet path's site). The meet workload is
	// byte-identical to the durable lane — the delta between the two lanes
	// IS the cost of background WAL shipping.
	teardown := func() {
		wal.Close()
		os.RemoveAll(dir)
	}
	if replicated {
		repDir, err := os.MkdirTemp("", "tacobench-replica-")
		if err != nil {
			wal.Close()
			os.RemoveAll(dir)
			return workload{}, err
		}
		rnet := vnet.NewNetwork(vnet.WithSeed(1))
		nodeL, nodeF := rnet.AddNode("bench-ldr"), rnet.AddNode("bench-rep")
		fsite := core.NewSite(nodeF, core.SiteConfig{
			Admission: func(agent, from string) error { return fmt.Errorf("standby") },
		})
		fol, err := repl.NewFollower(fsite, repl.FollowerConfig{
			Dir: repDir, Leader: "bench-ldr",
		})
		if err != nil {
			wal.Close()
			os.RemoveAll(dir)
			os.RemoveAll(repDir)
			return workload{}, err
		}
		ldr := repl.StartLeader(nodeL, wal, repl.LeaderConfig{Follower: "bench-rep"})
		teardown = func() {
			// Drain first: a lane that finishes with unbounded lag would be
			// measuring a queue, not replication.
			dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := ldr.Drain(dctx); err != nil {
				fmt.Fprintf(os.Stderr, "tacobench: replicated drain: %v\n", err)
			}
			cancel()
			ldr.Stop()
			fol.Close()
			wal.Close()
			os.RemoveAll(dir)
			os.RemoveAll(repDir)
		}
	}

	bcs := make([]*tacoma.Briefcase, durableConcurrency)
	seqs := make([]int, durableConcurrency)
	for i := range bcs {
		bc := tacoma.NewBriefcase()
		bc.PutString("CLIENT", fmt.Sprintf("w%d", i))
		work := tacoma.NewFolder()
		for j := 0; j < durableBatch; j++ {
			work.Push(elem)
		}
		bc.Put("WORK", work)
		bcs[i] = bc
	}
	return workload{
		op: func(worker int) error {
			seqs[worker]++
			bcs[worker].PutString("REQ", fmt.Sprintf("%d/%d", worker, seqs[worker]))
			return site.Meet(context.Background(), "deliver", bcs[worker])
		},
		cleanup:     teardown,
		concurrency: durableConcurrency,
		stats: func() string {
			st := wal.Stats()
			return fmt.Sprintf("wal sync batches: %s (records=%d syncs=%d)",
				st.FormatBatchHist(), st.Records, st.Syncs)
		},
	}, nil
}

// workerBriefcases builds one briefcase per worker, each with a PAYLOAD
// folder holding one element of the requested size. Briefcases are
// single-owner, so workers never share.
func workerBriefcases(n, payload int) []*tacoma.Briefcase {
	out := make([]*tacoma.Briefcase, n)
	elem := make([]byte, payload)
	for i := range out {
		bc := tacoma.NewBriefcase()
		f := tacoma.NewFolder()
		f.Push(elem)
		bc.Put("PAYLOAD", f)
		out[i] = bc
	}
	return out
}

// measure drives op from `concurrency` workers for duration d and reduces
// the per-op latency samples to the Result schema.
func measure(name string, concurrency int, d time.Duration, fn op) (Result, error) {
	var stop atomic.Bool
	var firstErr atomic.Value
	lats := make([][]int64, concurrency)

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samples := make([]int64, 0, 1<<14)
			for !stop.Load() {
				t0 := time.Now()
				if err := fn(w); err != nil {
					firstErr.CompareAndSwap(nil, err)
					stop.Store(true)
					break
				}
				samples = append(samples, int64(time.Since(t0)))
			}
			lats[w] = samples
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	if err, ok := firstErr.Load().(error); ok && err != nil {
		return Result{}, err
	}
	var all []int64
	for _, s := range lats {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return Result{}, fmt.Errorf("no operations completed in %v", d)
	}
	res := reduceSamples(name, concurrency, elapsed, all)
	res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Ops)
	res.BytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(res.Ops)
	return res, nil
}

// reduceSamples folds per-op samples (nanoseconds — wall time for op
// workloads, simulated time for the converge lane) into the Result schema.
func reduceSamples(name string, concurrency int, elapsed time.Duration, samples []int64) Result {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	ops := int64(len(samples))
	return Result{
		Name:        name,
		Concurrency: concurrency,
		DurationNs:  int64(elapsed),
		Ops:         ops,
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		P50Ns:       samples[len(samples)/2],
		P99Ns:       samples[len(samples)*99/100],
	}
}
