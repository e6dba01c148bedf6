package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/mesh"
	"repro/internal/vnet"
)

// The fleet lanes are the multi-site macro-benchmark: a mesh of in-process
// sites with a large resident agent population, measuring what the paper's
// fleet deployment cares about —
//
//	fleet          mesh-routed meets/sec: a meet issued at a random site for
//	               a random resident agent, forwarded at most one hop to the
//	               ring owner;
//	fleet-lookup   placement lookup latency: Ring.Owner on the hot path,
//	               the cost every misplaced meet pays before forwarding;
//	fleet-converge membership convergence: kill a site, count protocol
//	               periods until every survivor has dropped it, restart,
//	               wait for rejoin; samples are SIMULATED time
//	               (ticks × probe interval), not wall time.
//
// Sizing comes from -fleet-sites and -fleet-agents; CI's smoke lane runs
// 10 sites × 10k agents, the committed baseline 10 × 100k.

// fleetProbeInterval is the simulated protocol period used by the converge
// lane to translate ticks into seconds.
const fleetProbeInterval = 100 * time.Millisecond

// fleetFixture is a booted mesh of sites with resident agents.
type fleetFixture struct {
	sys    *core.System
	meshes []*mesh.Mesh
	names  []string // resident agent names
}

// buildFleet boots nsites meshed sites and registers agents resident
// no-op agents, each at its ring owner.
func buildFleet(nsites, agents int) (*fleetFixture, error) {
	sys := core.NewSystem(nsites, core.SystemConfig{
		Seed: 1,
		// Fast failure detection: converge-lane probes to the killed site
		// fail in milliseconds of real time, while simulated time is counted
		// in ticks.
		CallTimeout: 2 * time.Millisecond,
	})
	fx := &fleetFixture{sys: sys}
	for i := 0; i < nsites; i++ {
		cfg := mesh.Config{
			ProbeInterval: fleetProbeInterval,
			ProbeTimeout:  10 * time.Millisecond,
		}
		if i > 0 {
			cfg.Seeds = []vnet.SiteID{sys.SiteAt(0).ID()}
		}
		fx.meshes = append(fx.meshes, mesh.New(sys.SiteAt(i), cfg))
	}
	for _, m := range fx.meshes {
		if err := m.Join(context.Background()); err != nil {
			return nil, fmt.Errorf("fleet join: %w", err)
		}
	}
	if ticks := fx.ticksUntilAlive(nsites, 4*nsites); ticks < 0 {
		return nil, fmt.Errorf("fleet of %d sites never converged", nsites)
	}
	noop := core.AgentFunc(func(*core.MeetContext, *folder.Briefcase) error { return nil })
	fx.names = make([]string, agents)
	for i := range fx.names {
		name := fmt.Sprintf("fa-%d", i)
		fx.names[i] = name
		owner, ok := fx.meshes[0].Resolve(name)
		if !ok {
			return nil, fmt.Errorf("no ring owner for %s", name)
		}
		sys.Site(owner).Register(name, noop)
	}
	return fx, nil
}

// tickAll runs one protocol period on every live member.
func (fx *fleetFixture) tickAll() {
	for _, m := range fx.meshes {
		if !fx.sys.Net.Crashed(m.Site().ID()) {
			m.Tick(context.Background())
		}
	}
}

// ticksUntilAlive ticks until every live member sees want alive members;
// -1 if maxTicks was not enough.
func (fx *fleetFixture) ticksUntilAlive(want, maxTicks int) int {
	for t := 1; t <= maxTicks; t++ {
		fx.tickAll()
		done := true
		for _, m := range fx.meshes {
			if fx.sys.Net.Crashed(m.Site().ID()) {
				continue
			}
			if len(m.Alive()) != want {
				done = false
				break
			}
		}
		if done {
			return t
		}
	}
	return -1
}

// fleetWorkload: mesh-routed meets. Each op meets one resident agent at a
// rotating issuing site; when the issuer is not the ring owner the kernel's
// resolver hook forwards the meet exactly one hop.
func fleetWorkload(nsites, agents, concurrency, payload int) (workload, error) {
	fx, err := buildFleet(nsites, agents)
	if err != nil {
		return workload{}, err
	}
	bcs := make([]*folder.Briefcase, concurrency)
	elem := make([]byte, payload)
	for i := range bcs {
		bc := folder.NewBriefcase()
		f := folder.New()
		f.Push(elem)
		bc.Put("PAYLOAD", f)
		bcs[i] = bc
	}
	var seq atomic.Int64
	sites := make([]*core.Site, nsites)
	for i := range sites {
		sites[i] = fx.sys.SiteAt(i)
	}
	return workload{op: func(worker int) error {
		n := seq.Add(1)
		agentName := fx.names[int(n)%len(fx.names)]
		issuer := sites[int(n)%len(sites)]
		return issuer.Meet(context.Background(), agentName, bcs[worker])
	}}, nil
}

// fleetLookupWorkload: pure placement resolution — the ring lookup every
// meet-path miss performs before forwarding. Lookup latency must stay flat
// as the fleet and the agent population grow.
func fleetLookupWorkload(nsites, agents int) (workload, error) {
	fx, err := buildFleet(nsites, agents)
	if err != nil {
		return workload{}, err
	}
	ring := fx.meshes[0].Ring()
	names := fx.names
	var seq atomic.Int64
	return workload{op: func(worker int) error {
		n := seq.Add(1)
		if _, ok := ring.Owner(names[int(n)%len(names)]); !ok {
			return fmt.Errorf("lookup miss on a full ring")
		}
		return nil
	}}, nil
}

// fleetConverge runs kill/converge/restart trials and reports SIMULATED
// convergence time: ticks-to-converge × probe interval. ops_per_sec counts
// trials against wall time (reported for context; the lane is ungated in
// CI — simulated-time percentiles are the measurement, and the acceptance
// bound is p99 < 2s simulated).
func fleetConverge(nsites int, d time.Duration) (Result, error) {
	fx, err := buildFleet(nsites, 0)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewPCG(9, 9))
	var samples []int64
	start := time.Now()
	const maxTrials = 32
	for trial := 0; trial < maxTrials; trial++ {
		if trial >= 3 && time.Since(start) > d {
			break
		}
		victim := fx.sys.SiteAt(1 + rng.IntN(nsites-1)).ID() // keep the seed up
		if err := fx.sys.Net.Crash(victim); err != nil {
			return Result{}, err
		}
		ticks := fx.ticksUntilAlive(nsites-1, 40)
		if ticks < 0 {
			return Result{}, fmt.Errorf("trial %d: survivors never converged after killing %s", trial, victim)
		}
		samples = append(samples, int64(time.Duration(ticks)*fleetProbeInterval))
		if err := fx.sys.Net.Restart(victim); err != nil {
			return Result{}, err
		}
		if fx.ticksUntilAlive(nsites, 80) < 0 {
			return Result{}, fmt.Errorf("trial %d: %s never rejoined", trial, victim)
		}
	}
	elapsed := time.Since(start)
	return reduceSamples("fleet-converge", 1, elapsed, samples), nil
}
