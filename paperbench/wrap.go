package main

import (
	"context"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/tacl"
	"repro/internal/vnet"
)

// The wrappers below time calls into the kernel's layers from outside,
// through interfaces the kernel already accepts: vnet.Endpoint, core.Guard,
// core.Agent and core.CommitSyncer. Each records a span when the tracer is
// on and otherwise forwards after an atomic load or two.

// opFolder carries the benchmark's op id inside a briefcase, so wrappers
// that see the briefcase can attribute their spans.
const opFolder = "PB_OP"

// briefcaseOp reads the op id a briefcase carries, or noOp.
func briefcaseOp(bc *folder.Briefcase) int64 {
	if bc == nil {
		return noOp
	}
	s, err := bc.GetString(opFolder)
	if err != nil {
		return noOp
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return noOp
	}
	return n
}

// timedEndpoint times outbound calls (spanCall) and the inbound handler
// the site installs (spanServe). Neither sees a briefcase, so their spans
// are attributed to ops by time containment.
type timedEndpoint struct {
	vnet.Endpoint
	tr    atomic.Pointer[tracer] // nil until a traced window is set up
	calls atomic.Int64
	bytes atomic.Int64
}

func (e *timedEndpoint) Call(ctx context.Context, to vnet.SiteID, kind string, payload []byte) ([]byte, error) {
	tr := e.tr.Load()
	if tr == nil || !tr.on.Load() {
		return e.Endpoint.Call(ctx, to, kind, payload)
	}
	start := tr.now()
	resp, err := e.Endpoint.Call(ctx, to, kind, payload)
	tr.add(spanCall, noOp, start, tr.now())
	e.calls.Add(1)
	e.bytes.Add(int64(len(payload) + len(resp)))
	return resp, err
}

func (e *timedEndpoint) SetHandler(h vnet.HandlerFunc) {
	e.Endpoint.SetHandler(func(from vnet.SiteID, kind string, payload []byte) ([]byte, error) {
		tr := e.tr.Load()
		if tr == nil || !tr.on.Load() {
			return h(from, kind, payload)
		}
		start := tr.now()
		resp, err := h(from, kind, payload)
		tr.add(spanServe, noOp, start, tr.now())
		return resp, err
	})
}

// timedGuard times every hook of the installed guard and counts hook calls
// and refusals while the tracer is on. Its step hook counts TacL steps. With a nil inner guard it
// admits everything and only counts steps, which lets a site without a
// guard report steps per op.
type timedGuard struct {
	inner    core.Guard
	tr       *tracer
	checks   atomic.Int64
	refusals atomic.Int64
	steps    atomic.Int64
}

func (g *timedGuard) timed(name string, bc *folder.Briefcase, check func() error) error {
	if !g.tr.on.Load() {
		return check()
	}
	start := g.tr.now()
	err := check()
	g.tr.add(name, briefcaseOp(bc), start, g.tr.now())
	g.checks.Add(1)
	if err != nil {
		g.refusals.Add(1)
	}
	return err
}

func (g *timedGuard) CheckMeet(mc *core.MeetContext, agent string, bc *folder.Briefcase) error {
	if g.inner == nil {
		return nil
	}
	return g.timed(spanGuardMeet, bc, func() error { return g.inner.CheckMeet(mc, agent, bc) })
}

func (g *timedGuard) CheckArrival(origin, agent string, bc *folder.Briefcase) error {
	if g.inner == nil {
		return nil
	}
	return g.timed(spanArrival, bc, func() error { return g.inner.CheckArrival(origin, agent, bc) })
}

func (g *timedGuard) CheckCabinet(mc *core.MeetContext, bc *folder.Briefcase, name string, write bool) error {
	if g.inner == nil {
		return nil
	}
	return g.timed(spanGuardCab, bc, func() error { return g.inner.CheckCabinet(mc, bc, name, write) })
}

func (g *timedGuard) CheckBriefcase(mc *core.MeetContext, bc *folder.Briefcase, name string) error {
	if g.inner == nil {
		return nil
	}
	return g.timed(spanGuardBc, bc, func() error { return g.inner.CheckBriefcase(mc, bc, name) })
}

func (g *timedGuard) StepHook(mc *core.MeetContext, bc *folder.Briefcase) func() error {
	var inner func() error
	if g.inner != nil {
		_ = g.timed(spanGuardStep, bc, func() error {
			inner = g.inner.StepHook(mc, bc)
			return nil
		})
	}
	return func() error {
		g.steps.Add(1)
		if inner != nil {
			return inner()
		}
		return nil
	}
}

func (g *timedGuard) Bind(in *tacl.Interp, mc *core.MeetContext, bc *folder.Briefcase) {
	if g.inner == nil {
		return
	}
	_ = g.timed(spanGuardBind, bc, func() error {
		g.inner.Bind(in, mc, bc)
		return nil
	})
}

// timedAgent times one registered agent. opOf reads the op id from the
// briefcase before the agent runs (agents may consume folders).
type timedAgent struct {
	inner core.Agent
	name  string
	tr    *tracer
	opOf  func(*folder.Briefcase) int64
	calls atomic.Int64
}

func (a *timedAgent) Meet(mc *core.MeetContext, bc *folder.Briefcase) error {
	if !a.tr.on.Load() {
		return a.inner.Meet(mc, bc)
	}
	op := a.opOf(bc)
	start := a.tr.now()
	err := a.inner.Meet(mc, bc)
	a.tr.add(a.name, op, start, a.tr.now())
	a.calls.Add(1)
	return err
}

// wrapAgent re-registers the named agent at site behind a timing wrapper.
func wrapAgent(site *core.Site, agent, spanName string, tr *tracer, opOf func(*folder.Briefcase) int64) *timedAgent {
	inner, ok := site.Lookup(agent)
	if !ok {
		panic("paperbench: no agent " + agent + " at " + string(site.ID()))
	}
	a := &timedAgent{inner: inner, name: spanName, tr: tr, opOf: opOf}
	site.Register(agent, a)
	return a
}

// timedSyncer times the WAL's commit barrier. It is installed when the
// site is built, because the kernel keeps the barrier in an atomic.Value
// that only ever takes one concrete type. A barrier carries no briefcase;
// the workload attributes its spans afterwards.
type timedSyncer struct {
	inner core.CommitSyncer
	tr    atomic.Pointer[tracer] // nil until a traced window is set up
}

func (s *timedSyncer) Sync() error {
	tr := s.tr.Load()
	if tr == nil || !tr.on.Load() {
		return s.inner.Sync()
	}
	start := tr.now()
	err := s.inner.Sync()
	tr.add(spanSync, noOp, start, tr.now())
	return err
}
