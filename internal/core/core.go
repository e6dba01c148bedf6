// Package core implements the TACOMA kernel: sites, agents, and the meet
// operation. meet is the system's only IPC primitive — "services for
// agents — communication, synchronization, and so on — are provided
// directly by other agents". Migration, couriers, diffusion, brokers,
// electronic cash, and rear guards are all agents reached through meet.
//
// A Site hosts agents. Local meets are function calls that share a
// briefcase by reference; remote meets serialize the briefcase, perform one
// request/response exchange over the site's network endpoint, and fold the
// mutated briefcase back into the caller's. Agents written in TacL arrive
// as source code in their briefcase's CODE folder and are executed by the
// ag_tacl system agent, so a "running agent" never needs to be serialized:
// state travels in the briefcase and execution restarts at the destination.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/folder"
	"repro/internal/sched"
	"repro/internal/tacl"
	"repro/internal/vnet"
)

// Kernel-level errors.
var (
	// ErrNoAgent is returned by meet when the named agent is not
	// registered at the site.
	ErrNoAgent = errors.New("core: no such agent")
	// ErrMeetDepth bounds transitive meet recursion.
	ErrMeetDepth = errors.New("core: meet nesting too deep")
	// ErrRefused is returned when a site's admission policy rejects a meet.
	ErrRefused = errors.New("core: admission refused")
)

// maxMeetDepth bounds transitive meets (agent meets agent meets agent ...),
// protecting a site from mutually recursive agents.
const maxMeetDepth = 64

// Agent is anything that can be met. System agents and application services
// are implemented natively; roaming agents are TacL scripts executed by the
// ag_tacl Agent.
type Agent interface {
	// Meet executes the agent at mc.Site with the given briefcase. The
	// briefcase is shared: mutations are the agent's way of returning
	// results to the initiator.
	Meet(mc *MeetContext, bc *folder.Briefcase) error
}

// AgentFunc adapts a function to the Agent interface.
type AgentFunc func(mc *MeetContext, bc *folder.Briefcase) error

// Meet calls f.
func (f AgentFunc) Meet(mc *MeetContext, bc *folder.Briefcase) error { return f(mc, bc) }

// MeetContext carries the execution context of one meet.
type MeetContext struct {
	// Ctx is the cancellation context for the whole agent computation.
	Ctx context.Context
	// Site is where the agent is executing.
	Site *Site
	// From names the agent that initiated the meet ("" for external
	// clients injecting an agent into the system).
	From string
	// Agent names the agent being met.
	Agent string
	// Depth counts transitive meets.
	Depth int
}

// child derives the context for a nested meet.
func (mc *MeetContext) child(agent string) *MeetContext {
	return &MeetContext{
		Ctx:   mc.Ctx,
		Site:  mc.Site,
		From:  mc.Agent,
		Agent: agent,
		Depth: mc.Depth + 1,
	}
}

// SiteConfig tunes a site's autonomy policies.
type SiteConfig struct {
	// MaxSteps bounds TacL steps per agent activation (0 = default).
	MaxSteps int
	// Admission, if non-nil, is consulted before every meet; returning an
	// error refuses the visiting agent. Sites are autonomous: their
	// administrators control the resources they offer.
	Admission func(agent, from string) error
	// StepHookFactory, if non-nil, builds a per-activation hook invoked on
	// every TacL step of a visiting agent. Returning an error from the
	// hook aborts the agent. The cash package uses this to charge
	// electronic cash for cycles, the paper's mechanism for limiting the
	// damage a runaway agent can do.
	StepHookFactory func(agent, from string) func() error
	// Seed seeds the site-local deterministic RNG exposed to agents.
	Seed int64
	// Cabinet, if non-nil, is adopted as the site's file cabinet instead
	// of a fresh empty one. Durable deployments recover their WAL into a
	// cabinet *before* creating the site — NewSite installs the network
	// handler, so recovery must be complete by then or a boot-window meet
	// could be acknowledged un-journaled and wiped by the replay.
	Cabinet *folder.FileCabinet
	// Durable, if non-nil, is installed as the cabinet's commit barrier
	// (see SetDurable) before the site serves its first call, so no meet
	// is ever acknowledged without its durability barrier.
	Durable CommitSyncer
	// TaclEngine pins agent scripts to a TacL execution engine. The zero
	// value is the bytecode VM; tests pin tacl.EngineAST or
	// tacl.EngineReference to check the engines against each other through
	// the full host-command path.
	TaclEngine tacl.Engine
}

// defaultMaxSteps bounds runaway agents when the site does not configure a
// budget of its own.
const defaultMaxSteps = 1 << 20

// Site is one autonomous node in a TACOMA system: a place where agents
// execute, with its own agent registry and file cabinet.
type Site struct {
	id       vnet.SiteID
	endpoint vnet.Endpoint
	cabinet  *folder.FileCabinet
	cfg      SiteConfig

	// agents is the lock-striped agent registry (see registry.go):
	// concurrent meets on different agents resolve without contending.
	agents *registry

	// guardv holds the installed Guard (see guard.go); atomic so the hot
	// meet path avoids a lock when no guard is installed.
	guardv atomic.Value

	// durablev holds the optional durable-cabinet barrier (see SetDurable);
	// atomic so the hot meet path pays one lock-free load when the cabinet
	// is not write-ahead logged.
	durablev atomic.Value // CommitSyncer

	// resolverv holds the optional agent→site Resolver (see SetResolver):
	// one lock-free load on the meet path's miss branch, nothing when the
	// site is not in a mesh.
	resolverv atomic.Value // Resolver

	// kindExt is the extension dispatch table for network message kinds the
	// kernel itself does not speak (the mesh's gossip frames ride here).
	// Copy-on-write under kindMu, read with one atomic load per call.
	kindMu  sync.Mutex
	kindExt atomic.Value // map[string]vnet.HandlerFunc

	// taclTable is the site's shared TacL command table (builtins + host
	// commands), built once per site; scripts holds the site's compile-once
	// script cache. Together they make a scripted activation free of
	// per-activation parsing and command registration (see taclbind.go).
	taclTable *tacl.Table
	scripts   scriptCache

	// rngSeed/rngSeq drive the lock-free site RNG: each Rand call derives
	// an independent PCG stream from (seed, sequence counter), so
	// concurrent scripted meets never serialize on a shared generator.
	rngSeed uint64
	rngSeq  atomic.Uint64

	// Per-peer wire protocol state: the content-addressed folder cache (see
	// remoteMeet). One entry per peer this site has exchanged meets with, in
	// either direction.
	wiremu    sync.RWMutex
	wirePeers map[vnet.SiteID]*peerWire
	wireStats wireCounters
	wireRec   atomic.Value // func(peer vnet.SiteID, name string, tag byte, n int)

	activations atomic.Int64 // total meets served
	running     atomic.Int64 // currently executing meets

	// sched is the site's zero-goroutine agent scheduler: a bounded worker
	// pool for runnable activations (async meets, parked-agent resumes) and
	// the tracker for detached background work (Go/Wait). Parked agents are
	// registered here volatile-side; their durable continuations live in
	// the cabinet under PARKED: folders (see park.go).
	sched *sched.Scheduler

	// resumer is the site's sched.Resumer identity, allocated once so every
	// Park call registers the same adapter.
	resumer parkResumer
}

// peerWire is this site's wire-protocol state for one peer.
type peerWire struct {
	cache *folder.DeltaCache
	// rec feeds the site's wire counters (and any test hook) for traffic
	// with this peer; built once at peer creation so the hot path does not
	// allocate a closure per meet.
	rec folder.DeltaRecorder
}

// maxWirePeers bounds the per-peer wire state map. The map is keyed by the
// *claimed* sender site ID, which on an open (unauthenticated) endpoint is
// attacker-chosen: without a bound, a client claiming a fresh site name per
// request would mint a fresh 1MiB-budget DeltaCache each time. Evicting a
// random peer only costs protocol efficiency — its next ref misses and the
// miss fallback re-ships full bytes — never correctness.
const maxWirePeers = 1024

// peerWire returns (creating on first use) the wire state for a peer.
func (s *Site) peerWire(id vnet.SiteID) *peerWire {
	s.wiremu.RLock()
	pw, ok := s.wirePeers[id]
	s.wiremu.RUnlock()
	if ok {
		return pw
	}
	s.wiremu.Lock()
	defer s.wiremu.Unlock()
	if s.wirePeers == nil {
		s.wirePeers = make(map[vnet.SiteID]*peerWire)
	}
	pw, ok = s.wirePeers[id]
	if !ok {
		if len(s.wirePeers) >= maxWirePeers {
			for victim := range s.wirePeers { // random map order
				delete(s.wirePeers, victim)
				break
			}
		}
		pw = &peerWire{cache: folder.NewDeltaCache(0), rec: s.deltaRecorder(id)}
		s.wirePeers[id] = pw
	}
	return pw
}

// wireCounters aggregates delta-protocol accounting across all peers.
type wireCounters struct {
	meetsV2              atomic.Int64
	misses               atomic.Int64
	fullFolders          atomic.Int64
	fullBytes            atomic.Int64
	refFolders           atomic.Int64
	refSavedBytes        atomic.Int64
	forcedFullRetransmit atomic.Int64
}

// WireStats is a snapshot of the site's delta-protocol accounting.
type WireStats struct {
	// MeetsV2 counts outbound remote meets.
	MeetsV2 int64
	// Misses counts miss round trips (a ref the peer could not resolve).
	Misses int64
	// FullFolders/FullBytes count delta-eligible folders (and their
	// canonical bytes) this site shipped in full, in either direction.
	FullFolders, FullBytes int64
	// RefFolders/RefSavedBytes count folders shipped as 32-byte refs and
	// the canonical bytes that therefore did not cross the wire.
	RefFolders, RefSavedBytes int64
	// ForcedFullRetransmits counts miss retries that re-shipped every
	// eligible folder in full.
	ForcedFullRetransmits int64
}

// WireStats returns a snapshot of the site's wire accounting.
func (s *Site) WireStats() WireStats {
	return WireStats{
		MeetsV2:               s.wireStats.meetsV2.Load(),
		Misses:                s.wireStats.misses.Load(),
		FullFolders:           s.wireStats.fullFolders.Load(),
		FullBytes:             s.wireStats.fullBytes.Load(),
		RefFolders:            s.wireStats.refFolders.Load(),
		RefSavedBytes:         s.wireStats.refSavedBytes.Load(),
		ForcedFullRetransmits: s.wireStats.forcedFullRetransmit.Load(),
	}
}

// SetWireRecorder installs a hook observing every delta-eligible folder
// entry this site encodes (requests and replies): tag is
// folder.EntryFullCached or folder.EntryRef, n the canonical encoding size
// the entry represents. Tests use it to prove an itinerary ships SIG bytes
// only on the first hop. Pass nil to remove.
func (s *Site) SetWireRecorder(fn func(peer vnet.SiteID, name string, tag byte, n int)) {
	s.wireRec.Store(fn)
}

// deltaRecorder builds the folder.DeltaRecorder feeding the site counters
// (and the test hook, consulted per call so it may be installed any time)
// for traffic with one peer. Built once per peerWire.
func (s *Site) deltaRecorder(peer vnet.SiteID) folder.DeltaRecorder {
	return func(name string, tag byte, n int) {
		if tag == folder.EntryRef {
			s.wireStats.refFolders.Add(1)
			s.wireStats.refSavedBytes.Add(int64(n))
		} else {
			s.wireStats.fullFolders.Add(1)
			s.wireStats.fullBytes.Add(int64(n))
		}
		if hook, _ := s.wireRec.Load().(func(vnet.SiteID, string, byte, int)); hook != nil {
			hook(peer, name, tag, n)
		}
	}
}

// pinPool recycles the per-call hash → encoding pin maps.
var pinPool = sync.Pool{New: func() any { return make(map[folder.Hash][]byte, 8) }}

func getPins() map[folder.Hash][]byte { return pinPool.Get().(map[folder.Hash][]byte) }

func putPins(m map[folder.Hash][]byte) {
	clear(m)
	pinPool.Put(m)
}

// NewSite creates a site bound to the given endpoint and installs the
// system agents (ag_tacl, rexec, courier, diffusion). The endpoint's
// incoming-call handler is taken over by the site.
func NewSite(ep vnet.Endpoint, cfg SiteConfig) *Site {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	cab := cfg.Cabinet
	if cab == nil {
		cab = folder.NewCabinet()
	}
	s := &Site{
		id:        ep.ID(),
		endpoint:  ep,
		cabinet:   cab,
		cfg:       cfg,
		agents:    newRegistry(),
		taclTable: newHostTable(),
		rngSeed:   uint64(cfg.Seed + 1),
		sched:     sched.New(0),
	}
	s.resumer = parkResumer{s}
	if cfg.Durable != nil {
		s.durablev.Store(cfg.Durable)
	}
	registerSystemAgents(s)
	ep.SetHandler(s.handleCall)
	return s
}

// ID returns the site's name.
func (s *Site) ID() vnet.SiteID { return s.id }

// Cabinet returns the site-local file cabinet.
func (s *Site) Cabinet() *folder.FileCabinet { return s.cabinet }

// CommitSyncer is the durability barrier of a write-ahead-logged cabinet
// (store.WAL implements it). Sync returns once every cabinet mutation
// recorded before the call is on stable storage.
type CommitSyncer interface {
	Sync() error
}

// SetDurable marks the site's cabinet as durable: cs.Sync() is invoked at
// the end of every depth-0 meet, so a meet's caller — local client or
// remote peer — only sees the meet complete once its cabinet effects are
// crash-durable. Mutations inside the meet never block individually; the
// one barrier per transaction is what lets the WAL group-commit both the
// mutations of one meet and the barriers of concurrent meets into a single
// fdatasync. Install it right after recovery, before the site serves
// traffic.
func (s *Site) SetDurable(cs CommitSyncer) { s.durablev.Store(cs) }

// Durable returns the installed commit barrier, or nil.
func (s *Site) Durable() CommitSyncer {
	cs, _ := s.durablev.Load().(CommitSyncer)
	return cs
}

// DurableSync forces the durability barrier outside a meet (rear guards arm
// checkpoints from detached goroutines). A site without a durable cabinet
// returns nil immediately.
func (s *Site) DurableSync() error {
	if cs := s.Durable(); cs != nil {
		return cs.Sync()
	}
	return nil
}

// Endpoint returns the site's network attachment.
func (s *Site) Endpoint() vnet.Endpoint { return s.endpoint }

// HandleKind installs a handler for one network message kind, extending the
// kernel's own dispatch (meet2, ping). The mesh layer uses it to serve
// gossip frames over the same endpoint meets travel on. Installing nil
// removes the kind. Kinds the kernel serves itself cannot be overridden.
func (s *Site) HandleKind(kind string, h vnet.HandlerFunc) {
	s.kindMu.Lock()
	defer s.kindMu.Unlock()
	old, _ := s.kindExt.Load().(map[string]vnet.HandlerFunc)
	next := make(map[string]vnet.HandlerFunc, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if h == nil {
		delete(next, kind)
	} else {
		next[kind] = h
	}
	s.kindExt.Store(next)
}

// kindHandler returns the extension handler for kind, or nil.
func (s *Site) kindHandler(kind string) vnet.HandlerFunc {
	m, _ := s.kindExt.Load().(map[string]vnet.HandlerFunc)
	return m[kind]
}

// Resolver maps an agent name to the site that owns it. The mesh's
// consistent-hash ring implements it; the kernel consults it only when a
// meet misses the local registry, so resolution costs nothing on the
// resident hot path.
type Resolver interface {
	// Resolve returns the owning site for an agent, or false when the
	// agent's placement is unknown (the meet then fails with ErrNoAgent).
	Resolve(agent string) (vnet.SiteID, bool)
}

// SetResolver installs the agent→site resolver consulted when a meet misses
// the local registry: if the resolver places the agent at another site, the
// meet transparently forwards there — one hop, never more (see FwdFolder).
// Pass nil to remove.
func (s *Site) SetResolver(r Resolver) { s.resolverv.Store(&r) }

// resolver returns the installed Resolver, or nil.
func (s *Site) resolver() Resolver {
	if p, ok := s.resolverv.Load().(*Resolver); ok {
		return *p
	}
	return nil
}

// Resolve reports which site owns the named agent: this site when the agent
// is registered locally, otherwise whatever the installed resolver says.
func (s *Site) Resolve(agent string) (vnet.SiteID, bool) {
	if _, ok := s.Lookup(agent); ok {
		return s.id, true
	}
	if r := s.resolver(); r != nil {
		return r.Resolve(agent)
	}
	return "", false
}

// FwdFolder marks a briefcase as already redirected once by a resolver.
// The forwarding site plants it; the destination strips it before the agent
// executes and refuses to redirect a marked meet again, so membership-churn
// disagreement between two rings degrades to ErrNoAgent instead of a
// forwarding loop — the at-most-one-redirect-hop invariant.
const FwdFolder = "MESH_FWD"

// Register installs an agent under the given name, replacing any previous
// registration.
func (s *Site) Register(name string, a Agent) { s.agents.register(name, a) }

// Unregister removes a named agent.
func (s *Site) Unregister(name string) { s.agents.unregister(name) }

// Lookup returns the named agent.
func (s *Site) Lookup(name string) (Agent, bool) { return s.agents.lookup(name) }

// AgentNames lists registered agents in sorted order.
func (s *Site) AgentNames() []string { return s.agents.names() }

// Activations reports the total number of meets served by this site.
func (s *Site) Activations() int64 { return s.activations.Load() }

// AgentCount reports the number of registered agents — the resident
// population measure mesh load reports carry.
func (s *Site) AgentCount() int { return s.agents.count() }

// Load reports the number of currently executing meets; the scheduling
// monitor agent reports it to brokers.
func (s *Site) Load() int64 { return s.running.Load() }

// Rand returns a deterministic site-local random int in [0, n). Each call
// seeds a stack-local PCG with (site seed, call sequence number), so there
// is no shared generator state and no lock: concurrent scripted meets that
// used to serialize on one mutex now draw independently. Under
// single-threaded use the sequence is still a pure function of the site
// seed, so equal-seed runs stay identical.
func (s *Site) Rand(n int64) int64 {
	if n <= 0 {
		panic("core: Rand: n must be positive") // matches rand.Int63n's precondition
	}
	var p rand.PCG
	p.Seed(s.rngSeed, s.rngSeq.Add(1))
	// Map the 64-bit draw onto [0, n) with a 128-bit multiply (Lemire);
	// the bias for any realistic n is far below what agent decisions see.
	hi, _ := bits.Mul64(p.Uint64(), uint64(n))
	return int64(hi)
}

// Wait blocks until detached background work (async couriers, diffusion
// clones, async meets, in-flight parked-agent resumes) spawned by this
// site has finished. Tests and benchmarks use it to quiesce the system.
// Parked agents are at rest, not in flight, and do not hold Wait open.
func (s *Site) Wait() { s.sched.Quiesce() }

// Scheduler exposes the site's agent scheduler (stats, quiesce).
func (s *Site) Scheduler() *sched.Scheduler { return s.sched }

// meet executes the named agent locally with the briefcase — the engine
// under the public Meet (see meet.go): the caller blocks until the agent
// terminates the meet; information is exchanged through the shared
// briefcase.
func (s *Site) meet(mc *MeetContext, agent string, bc *folder.Briefcase) error {
	if mc == nil {
		mc = &MeetContext{Ctx: context.Background()}
	}
	if mc.Ctx == nil {
		mc.Ctx = context.Background()
	}
	if mc.Depth >= maxMeetDepth {
		return fmt.Errorf("%w (%d)", ErrMeetDepth, mc.Depth)
	}
	if err := mc.Ctx.Err(); err != nil {
		return err
	}
	// A briefcase carrying the forward marker has already been redirected
	// once: strip the marker (the executing agent never sees it) and
	// remember — a second redirect is refused below.
	forwarded := bc != nil && bc.Has(FwdFolder)
	if forwarded {
		bc.Delete(FwdFolder)
	}
	// The requester of this meet is the currently executing agent
	// (mc.Agent); for network arrivals that is "rexec@<origin>".
	if s.cfg.Admission != nil {
		if err := s.cfg.Admission(agent, mc.Agent); err != nil {
			return fmt.Errorf("%w: %s at %s: %v", ErrRefused, agent, s.id, err)
		}
	}
	if g := s.Guard(); g != nil {
		if err := g.CheckMeet(mc, agent, bc); err != nil {
			return fmt.Errorf("%w: %s at %s: %v", ErrRefused, agent, s.id, err)
		}
	}
	a, ok := s.Lookup(agent)
	if !ok {
		// A parked agent is not registered, but a meet addressed to it is
		// not a miss: deposit the briefcase in its pending folder and
		// enqueue its resume. Checked before the resolver — the parked
		// continuation lives here, so this site is the owner regardless of
		// what a churning ring says.
		if s.deliverParked(agent, bc) {
			if mc.Depth == 0 {
				if cs := s.Durable(); cs != nil {
					if serr := cs.Sync(); serr != nil {
						return fmt.Errorf("core: durable commit at %s: %w", s.id, serr)
					}
				}
			}
			return nil
		}
		if r := s.resolver(); r != nil && !forwarded {
			if owner, placed := r.Resolve(agent); placed && owner != s.id {
				// Misplaced meet: redirect one hop to the owning site. The
				// marker travels with the briefcase so the owner — whose ring
				// may disagree under membership churn — never redirects again.
				// A nil briefcase still needs one to carry the marker.
				if bc == nil {
					bc = folder.NewBriefcase()
				}
				bc.PutString(FwdFolder, string(s.id))
				err := s.remoteMeet(mc.Ctx, owner, agent, bc)
				bc.Delete(FwdFolder)
				return err
			}
		}
		return fmt.Errorf("%w: %q at site %s", ErrNoAgent, agent, s.id)
	}

	sub := &MeetContext{Ctx: mc.Ctx, Site: s, From: mc.Agent, Agent: agent, Depth: mc.Depth + 1}
	s.activations.Add(1)
	s.running.Add(1)
	defer s.running.Add(-1)
	err := a.Meet(sub, bc)
	if mc.Depth == 0 {
		// The whole transitive meet is one transaction: its cabinet
		// mutations become durable before the initiator sees it complete.
		// Nested meets skip the barrier, and a failed barrier fails the
		// meet — the caller must not act on an acknowledgement the site
		// could forget.
		if cs := s.Durable(); cs != nil {
			if serr := cs.Sync(); serr != nil && err == nil {
				err = fmt.Errorf("core: durable commit at %s: %w", s.id, serr)
			}
		}
	}
	return err
}

// remoteMeet executes the named agent at another site, sending the
// briefcase there and folding the mutated briefcase back on success. This
// is the primitive under rexec and the At(dest) meet option.
//
// The briefcase travels in the delta format (see wire.go): folders the peer
// already holds ship as content refs instead of bytes, so a signed
// multi-hop agent stops re-shipping its own code after the first hop over
// a link. Pins accumulate the stable encodings of every eligible folder
// this call ships or references, and resolve the reply's refs without
// depending on cache residency; a miss reply (the peer evicted something we
// reffed) forgets the missed hashes and retries once with refs disabled,
// which cannot miss again.
func (s *Site) remoteMeet(ctx context.Context, dest vnet.SiteID, agent string, bc *folder.Briefcase) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if dest == s.id {
		// A meet addressed to the local site short-circuits the network.
		return s.meet(&MeetContext{Ctx: ctx}, agent, bc)
	}
	pw := s.peerWire(dest)
	s.wireStats.meetsV2.Add(1)
	// The pin map is allocated (from the pool) only when something is
	// actually pinned: meets whose briefcases carry no delta-eligible
	// folders — the common small-payload case — skip it entirely.
	var pins map[folder.Hash][]byte
	defer func() {
		if pins != nil {
			putPins(pins)
		}
	}()
	pin := func(h folder.Hash, enc []byte) {
		if pins == nil {
			pins = getPins()
		}
		pins[h] = enc
	}
	resolve := func(h folder.Hash) ([]byte, bool) {
		if enc, ok := pins[h]; ok {
			return enc, true
		}
		return pw.cache.Get(h)
	}
	refs := pw.cache.Get
	for attempt := 0; ; attempt++ {
		payload := appendMeetRequestV2(folder.GetBuffer(), agent, string(s.id), bc, pw.cache, refs, pin, pw.rec)
		resp, err := s.endpoint.Call(ctx, dest, msgMeet2, payload)
		folder.PutBuffer(payload)
		if err != nil {
			return fmt.Errorf("core: remote meet %s at %s: %w", agent, dest, err)
		}
		if len(resp) == 0 {
			return fmt.Errorf("core: remote meet %s at %s: empty reply", agent, dest)
		}
		switch resp[0] {
		case replyBriefcase:
			out, missing, err := folder.DecodeBriefcaseDelta(resp[1:], resolve, func(h folder.Hash, enc []byte) {
				pw.cache.PutCopy(h, enc)
			})
			if err != nil {
				return fmt.Errorf("core: remote meet %s at %s: bad reply: %w", agent, dest, err)
			}
			if len(missing) > 0 {
				// The peer broke the pin rule (or our cache lost a same-call
				// pin, which pins exist to prevent); there is no safe retry —
				// the meet already executed.
				return fmt.Errorf("core: remote meet %s at %s: reply referenced %d unknown folder hashes", agent, dest, len(missing))
			}
			bc.ReplaceAll(out)
			return nil
		case replyMiss:
			missing, err := decodeMissReply(resp[1:])
			if err != nil {
				return fmt.Errorf("core: remote meet %s at %s: %w", agent, dest, err)
			}
			s.wireStats.misses.Add(1)
			for _, h := range missing {
				pw.cache.Forget(h)
			}
			if attempt >= 1 {
				return fmt.Errorf("core: remote meet %s at %s: persistent delta miss (%d hashes)", agent, dest, len(missing))
			}
			// Retry with refs disabled: every eligible folder re-ships as
			// cacheable full bytes, repopulating the peer.
			s.wireStats.forcedFullRetransmit.Add(1)
			refs = nil
		default:
			return fmt.Errorf("core: remote meet %s at %s: bad reply tag %#x", agent, dest, resp[0])
		}
	}
}

// Go runs fn detached from the current meet, tracked so Wait can quiesce.
// Detached work is how an agent "continues executing concurrently" after
// terminating a meet. The work runs on its own goroutine (it may block on
// the network); short runnable activations go through the scheduler's
// worker pool instead via Async meets and parked-agent wakeups.
func (s *Site) Go(fn func()) { s.sched.Spawn(fn) }

// Message kinds on the wire.
const (
	msgMeet2 = "meet2" // delta-framed meet (see wire.go)
	msgPing  = "ping"
)

// handleCall serves incoming network calls.
func (s *Site) handleCall(from vnet.SiteID, kind string, payload []byte) ([]byte, error) {
	switch kind {
	case msgPing:
		return []byte(strconv.FormatInt(s.endpoint.Incarnation(), 10)), nil
	case msgMeet2:
		return s.serveMeet2(from, payload)
	default:
		if h := s.kindHandler(kind); h != nil {
			return h(from, kind, payload)
		}
		return nil, fmt.Errorf("core: site %s: unknown message kind %q", s.id, kind)
	}
}

// serveMeet2 serves one delta-framed meet: resolve refs against the peer
// cache (answering a miss, without executing, when the caller reffed
// something we no longer hold), run the meet, and delta-encode the reply.
// Reply refs are restricted to hashes pinned by this request, so the
// caller can always resolve them.
func (s *Site) serveMeet2(from vnet.SiteID, payload []byte) ([]byte, error) {
	pw := s.peerWire(from)
	var pins map[folder.Hash][]byte // lazily pooled, as in remoteMeet
	defer func() {
		if pins != nil {
			putPins(pins)
		}
	}()
	resolve := func(h folder.Hash) ([]byte, bool) {
		enc, ok := pw.cache.Get(h)
		if ok {
			if pins == nil {
				pins = getPins()
			}
			pins[h] = enc
		}
		return enc, ok
	}
	// Cacheable segments are only *collected* during decode; nothing enters
	// the per-peer cache until the firewall has admitted the arrival. The
	// peer key is the attacker-mintable claimed sender ID, so inserting
	// before CheckArrival would let refused agents pin
	// maxWirePeers × cache-budget bytes of junk on a guarded open site.
	// The segments alias the request payload, which outlives the handler.
	type pending struct {
		h   folder.Hash
		enc []byte
	}
	var admit []pending
	cached := func(h folder.Hash, enc []byte) {
		if pins == nil {
			pins = getPins()
		}
		pins[h] = enc
		admit = append(admit, pending{h, enc})
	}
	agent, origin, bc, missing, err := decodeMeetRequestV2(payload, resolve, cached)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		s.wireStats.misses.Add(1)
		return appendMissReply(nil, missing), nil
	}
	// The firewall check: a guarded site screens inbound agents at the
	// network boundary before any local meet is dispatched.
	if g := s.Guard(); g != nil {
		if err := g.CheckArrival(origin, agent, bc); err != nil {
			return nil, fmt.Errorf("%w: arrival from %s at %s: %v", ErrRefused, origin, s.id, err)
		}
	}
	// Admitted: make the collected segments durable (the sender inserted
	// them optimistically on ship; a refusal above leaves it believing the
	// invariant holds, which at worst costs one miss round trip later).
	for _, p := range admit {
		pins[p.h] = pw.cache.PutCopy(p.h, p.enc)
	}
	// The network caller's identity goes in mc.Agent, from which the meet
	// derives the activation's From: agents arriving over the wire are
	// "rexec@<origin>" to the destination's policies (admission, billing).
	mc := &MeetContext{Ctx: context.Background(), Site: s, Agent: "rexec@" + origin}
	if err := s.meet(mc, agent, bc); err != nil {
		return nil, err
	}
	refs := func(h folder.Hash) ([]byte, bool) {
		enc, ok := pins[h]
		return enc, ok
	}
	out := append(make([]byte, 0, 64+bc.Size()), replyBriefcase)
	return folder.AppendBriefcaseDelta(out, bc, pw.cache, refs, nil, pw.rec), nil
}

// Ping checks reachability of another site.
func (s *Site) Ping(ctx context.Context, dest vnet.SiteID, timeout time.Duration) error {
	_, err := s.PingIncarnation(ctx, dest, timeout)
	return err
}

// PingIncarnation checks reachability and returns the destination's boot
// incarnation. The rear-guard failure detector compares incarnations across
// probes: a changed incarnation means the site crashed and restarted — and
// took the agents executing on it down — even if no individual probe ever
// failed.
func (s *Site) PingIncarnation(ctx context.Context, dest vnet.SiteID, timeout time.Duration) (int64, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	resp, err := s.endpoint.Call(ctx, dest, msgPing, nil)
	if err != nil {
		return 0, err
	}
	inc, err := strconv.ParseInt(string(resp), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("core: bad ping reply from %s: %w", dest, err)
	}
	return inc, nil
}
