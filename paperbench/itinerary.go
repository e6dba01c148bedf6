package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/guard"
	"repro/internal/stormcast"
	"repro/internal/vnet"
)

// The itinerary workload is StormCast's roaming collector: a freshly signed
// TacL agent launched from home visits the three sensor sites in a
// seed-drawn order, meets each site's sensor for a summary, and jumps home,
// where the benchmark runs the expert on what it gathered. Every site is a
// firewall, so each arrival verifies the agent's signature.

const (
	homeSite       = "hop-0"
	itinClients    = 2
	itinPrincipal  = "stormcast"
	itinPayload    = 64
	itinWindow     = 2  // sensor window: the shortest with a pressure trend
	itinTimesteps  = 30 // timesteps are drawn from [0, itinTimesteps)
	itinSensorGrid = 4
)

var sensorSites = []vnet.SiteID{"hop-1", "hop-2", "hop-3"}

// collectorSrc is the signed collector. ITIN holds the stations still to
// visit, home last; the home activation finds it empty and ends the trip.
const collectorSrc = `bc_push TRAIL [host]
if {[bc_len ITIN] > 0} {
	meet sensor
	jump [bc_dequeue ITIN]
}
`

type itinerary struct {
	seed   int64
	eps    []*vnet.TCPEndpoint
	timed  []*timedEndpoint // the sites' endpoints; they time calls once trace sets a tracer
	sites  []*core.Site
	home   *core.Site
	keys   *guard.Keyring
	guards []*guard.Guard
	model  stormcast.Model
	cells  map[vnet.SiteID][2]int
	expert stormcast.Expert
	// direct holds each sensor site's summary for every timestep, computed
	// straight from the model at setup so checking an op costs no model
	// evaluations.
	direct map[vnet.SiteID][]stormcast.Summary

	mu     sync.Mutex
	nextOp int64
	rngs   []*rand.Rand // one input stream per client

	tg   []*timedGuard
	tacl []*timedAgent
}

func newItinerary(seed int64, _ string) (workload, error) {
	it := &itinerary{
		seed:   seed,
		keys:   guard.NewKeyring(),
		model:  stormcast.DefaultModel(itinSensorGrid, itinSensorGrid, seed),
		expert: stormcast.DefaultExpert(),
		cells:  map[vnet.SiteID][2]int{},
		direct: map[vnet.SiteID][]stormcast.Summary{},
	}
	it.keys.Enroll(itinPrincipal)
	names := append([]vnet.SiteID{homeSite}, sensorSites...)
	for _, id := range names {
		ep, err := vnet.NewTCPEndpoint(id, "127.0.0.1:0")
		if err != nil {
			it.close()
			return nil, err
		}
		it.eps = append(it.eps, ep)
	}
	it.timed = make([]*timedEndpoint, len(it.eps))
	for i, ep := range it.eps {
		for _, other := range it.eps {
			if other != ep {
				ep.AddPeer(other.ID(), other.Addr())
			}
		}
		// The endpoint wrapper must be in place before NewSite installs the
		// site's handler; while the tracer is off it only forwards.
		it.timed[i] = &timedEndpoint{Endpoint: ep}
		site := core.NewSite(it.timed[i], core.SiteConfig{Seed: seed + int64(i)})
		policy := guard.NewPolicy()
		policy.SetFirewall(true)
		policy.Grant(itinPrincipal, guard.Capability{Meet: []string{core.AgTacl, core.AgRexec, stormcast.AgSensor}})
		it.guards = append(it.guards, guard.Install(site, guard.New(policy, it.keys)))
		it.sites = append(it.sites, site)
	}
	it.home = it.sites[0]
	for i, id := range sensorSites {
		x, y := i+1, (i*2+1)%itinSensorGrid
		it.cells[id] = [2]int{x, y}
		stormcast.InstallSensor(it.sites[i+1], it.model, x, y)
		for t := 0; t < itinTimesteps; t++ {
			it.direct[id] = append(it.direct[id], it.summarize(id, t))
		}
	}
	return it, nil
}

func (it *itinerary) clients(traced bool) int {
	if traced {
		// One client keeps op roots disjoint in time, so the vnet spans,
		// which carry no op id, are attributed exactly by containment.
		return 1
	}
	return itinClients
}

func (it *itinerary) loop(w *window, deadline time.Time, maxOps int64, clients int) {
	it.mu.Lock()
	for len(it.rngs) < clients {
		c := uint64(len(it.rngs))
		it.rngs = append(it.rngs, rand.New(rand.NewPCG(uint64(it.seed), 0x17e7a+c)))
	}
	it.mu.Unlock()
	parts := make([]*window, clients)
	var sent int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		parts[c] = &window{start: w.start, tr: w.tr}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				it.mu.Lock()
				if maxOps > 0 && sent >= maxOps {
					it.mu.Unlock()
					return
				}
				sent++
				op := it.nextOp
				it.nextOp++
				it.mu.Unlock()
				it.one(parts[c], it.rngs[c], op)
			}
		}(c)
	}
	wg.Wait()
	for _, p := range parts {
		w.merge(p)
	}
}

// one launches, awaits and checks one collector.
func (it *itinerary) one(w *window, rng *rand.Rand, op int64) {
	w.attempted++
	order := append([]vnet.SiteID(nil), sensorSites...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	t := rng.IntN(itinTimesteps)
	payload := make([]byte, itinPayload)
	for i := range payload {
		payload[i] = byte(rng.Uint32())
	}

	bc, err := guard.SignedScript(it.keys, itinPrincipal, homeSite, collectorSrc, nil)
	if err != nil {
		w.fail(err)
		return
	}
	sig := folder.EncodeFolder(bc.Lookup(guard.SigFolder))
	itin := folder.New()
	for _, id := range order[1:] {
		itin.PushString(string(id))
	}
	itin.PushString(homeSite)
	bc.Put("ITIN", itin)
	bc.PutString(stormcast.OpFolder, "summary")
	bc.PutString(stormcast.TimeFolder, strconv.Itoa(t))
	bc.PutString(stormcast.WindowFolder, strconv.Itoa(itinWindow))
	bc.Put("PAYLOAD", folder.Of(payload))
	bc.PutString(opFolder, strconv.FormatInt(op, 10))

	t0 := time.Now()
	err = it.home.Meet(context.Background(), core.AgTacl, bc, core.At(order[0]))
	t1 := time.Now()
	if err == nil {
		err = it.check(bc, sig, order, t)
	}
	if err != nil {
		w.fail(fmt.Errorf("op %d: %w", op, err))
		return
	}
	if w.tr != nil {
		w.tr.add(rootSpan, op, w.tr.stamp(t0), w.tr.stamp(t1))
	}
	w.done(t1.Sub(t0), t1)
}

// check verifies the returned briefcase: the trail lists the stations in
// launch order, the signature is byte-identical to launch (the code it
// covers was verified at every arrival, home included), and the forecast
// from the gathered summaries equals the one computed directly from the
// weather model.
func (it *itinerary) check(bc *folder.Briefcase, sig []byte, order []vnet.SiteID, t int) error {
	trail, err := bc.Folder("TRAIL")
	if err != nil {
		return err
	}
	want := append(append([]vnet.SiteID(nil), order...), homeSite)
	if trail.Len() != len(want) {
		return fmt.Errorf("TRAIL %v, want %v", trail.Strings(), want)
	}
	for i, s := range trail.Strings() {
		if s != string(want[i]) {
			return fmt.Errorf("TRAIL %v, want %v", trail.Strings(), want)
		}
	}
	if got := folder.EncodeFolder(bc.Lookup(guard.SigFolder)); string(got) != string(sig) {
		return fmt.Errorf("SIG changed in flight")
	}
	sf, err := bc.Folder(stormcast.SummaryFolder)
	if err != nil {
		return err
	}
	if sf.Len() != len(order) {
		return fmt.Errorf("%d summaries, want %d", sf.Len(), len(order))
	}
	var got, direct []stormcast.Summary
	for i, raw := range sf.Strings() {
		s, err := stormcast.ParseSummary(raw)
		if err != nil {
			return err
		}
		got = append(got, s)
		exp := it.direct[order[i]][t]
		if raw != exp.Encode() {
			return fmt.Errorf("summary from %s is %q, want %q", order[i], raw, exp.Encode())
		}
		direct = append(direct, exp)
	}
	if f, d := it.expert.Predict(t, got), it.expert.Predict(t, direct); !reflect.DeepEqual(f, d) {
		return fmt.Errorf("forecast %+v, want %+v", f, d)
	}
	return nil
}

// summarize computes a sensor site's summary straight from the model.
func (it *itinerary) summarize(id vnet.SiteID, t int) stormcast.Summary {
	xy := it.cells[id]
	var win []stormcast.Observation
	for i := t - itinWindow + 1; i <= t; i++ {
		if i >= 0 {
			win = append(win, it.model.Observe(string(id), xy[0], xy[1], i))
		}
	}
	return stormcast.Summarize(string(id), xy[0], xy[1], win)
}

func (it *itinerary) trace(tr *tracer) {
	for i, site := range it.sites {
		it.timed[i].tr.Store(tr)
		g := &timedGuard{inner: it.guards[i], tr: tr}
		site.SetGuard(g)
		it.tg = append(it.tg, g)
		it.tacl = append(it.tacl, wrapAgent(site, core.AgTacl, spanTacl, tr, briefcaseOp))
		wrapAgent(site, core.AgRexec, spanRexec, tr, briefcaseOp)
		if i > 0 {
			wrapAgent(site, stormcast.AgSensor, spanSensor, tr, briefcaseOp)
		}
	}
}

func (it *itinerary) counters() map[string]float64 {
	c := map[string]float64{}
	for i, site := range it.sites {
		ws := site.WireStats()
		c["wire.ref"] += float64(ws.RefFolders)
		c["wire.full"] += float64(ws.FullFolders)
		c["wire.misses"] += float64(ws.Misses)
		st := site.Scheduler().Stats()
		c["sched.steals"] += float64(st.Steals)
		c["sched.submitted"] += float64(st.Submitted)
		c["vnet.calls"] += float64(it.timed[i].calls.Load())
		c["vnet.bytes"] += float64(it.timed[i].bytes.Load())
	}
	for _, g := range it.tg {
		c["guard.checks"] += float64(g.checks.Load())
		c["guard.refusals"] += float64(g.refusals.Load())
		c["tacl.steps"] += float64(g.steps.Load())
	}
	for _, a := range it.tacl {
		c["tacl.activations"] += float64(a.calls.Load())
	}
	return c
}

func (it *itinerary) settle() error { return nil }

func (it *itinerary) finish() error { return nil }

func (it *itinerary) synthesize(spans []span) []span { return spans }

func (it *itinerary) layers(map[string]float64) {}

func (it *itinerary) info() string {
	var ws core.WireStats
	for _, s := range it.sites {
		w := s.WireStats()
		ws.RefFolders += w.RefFolders
		ws.FullFolders += w.FullFolders
		ws.Misses += w.Misses
	}
	return fmt.Sprintf("clients=%d wire_ref_folders=%d wire_full_folders=%d wire_misses=%d",
		itinClients, ws.RefFolders, ws.FullFolders, ws.Misses)
}

func (it *itinerary) close() {
	for _, ep := range it.eps {
		ep.Close()
	}
	for _, s := range it.sites {
		s.Wait()
	}
}
