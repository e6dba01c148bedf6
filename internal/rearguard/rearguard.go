// Package rearguard implements TACOMA's fault-tolerance scheme (section 5
// of the paper): when an agent computation moves from one site to another,
// it leaves a rear guard behind. The rear guard (i) launches a new agent
// should a failure cause the agent it protects to vanish, and (ii)
// terminates itself when its function is no longer necessary because the
// protected agent has moved on safely or the computation has finished.
//
// A guarded computation is an itinerary of sites with a task executed at
// each. State travels in the briefcase; every hop's guard holds the
// checkpointed briefcase as of the agent's departure, so a relaunch resumes
// from the last completed hop rather than from the beginning. Itineraries
// may revisit sites (cycles); per-computation hop marks in site cabinets
// keep re-executions after a relaunch race idempotent.
package rearguard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// Agent names registered on every participating site.
const (
	// AgHop executes one itinerary hop and moves the computation forward.
	AgHop = "rg_agent"
	// AgGuard manages rear guards: arm and release operations.
	AgGuard = "rg_guard"
	// AgHome receives the finished computation at its origin.
	AgHome = "rg_home"
)

// Briefcase folder names used by the protocol.
const (
	IDFolder        = "RG_ID"
	HopFolder       = "RG_HOP"
	ItineraryFolder = "RG_ITIN"
	TaskFolder      = "RG_TASK"
	OriginFolder    = "RG_ORIGIN"
	GuardedFolder   = "RG_GUARDED" // present when guards are enabled
	SkippedFolder   = "RG_SKIPPED" // hops skipped because their site was dead
	RelaunchFolder  = "RG_RELAUNCHES"
	guardSiteFolder = "RG_GSITE" // site of the currently armed guard
	guardHopFolder  = "RG_GKEY"  // hop key of the currently armed guard
	opFolder        = "RG_OP"
	hopOfGuard      = "RG_GHOP"
)

// ArmFolderPrefix prefixes the cabinet folders holding armed-guard
// checkpoints. Every arm writes (and every release deletes) one
// "RG_ARM:<id>/<hop>" folder with [id, hop, watched site, encoded
// checkpoint briefcase], so on a site whose cabinet is write-ahead logged
// (store.WAL) the fault-tolerance subsystem survives the faults it exists
// for: Recover re-arms the guards a crash dropped, closing the paper's loop
// where stable storage and rear guards together make agent computations
// survive site failures.
const ArmFolderPrefix = "RG_ARM:"

// Errors.
var (
	// ErrAllDead is recorded when no remaining itinerary site is reachable.
	ErrAllDead = errors.New("rearguard: no reachable site left in itinerary")
	// ErrTimeout is returned by Wait when the computation never finished.
	ErrTimeout = errors.New("rearguard: computation did not complete")
)

// Config describes one guarded computation.
type Config struct {
	// ID must be unique per computation.
	ID string
	// Task names the agent met at every itinerary site to do the work.
	Task string
	// Itinerary is the ordered list of sites to visit; repeats allowed.
	Itinerary []vnet.SiteID
	// Guards enables rear guards; without them a single site failure
	// kills the computation (the experiment's baseline).
	Guards bool
}

// Result is the completed computation as delivered to its origin.
type Result struct {
	ID string
	// Completed is false when Wait timed out.
	Completed bool
	// Briefcase is the final briefcase (nil unless Completed).
	Briefcase *folder.Briefcase
	// Relaunches counts rear-guard recoveries that contributed.
	Relaunches int
	// Skipped lists hops abandoned because their site stayed dead.
	Skipped []string
}

// guard is one armed rear guard.
type guard struct {
	id     string
	hop    int // the hop index the guard would relaunch
	watch  vnet.SiteID
	bc     *folder.Briefcase // checkpoint to relaunch with
	cancel chan struct{}
	once   sync.Once
}

func (g *guard) release() { g.once.Do(func() { close(g.cancel) }) }

// Manager runs the rear-guard machinery at one site. Install one per site.
type Manager struct {
	site *core.Site
	// Interval is the guard's failure-detection period.
	Interval time.Duration
	// Misses is how many consecutive failed pings declare a site dead.
	Misses int

	mu      sync.Mutex
	guards  map[string]*guard      // key: id "/" hop
	waiters map[string]chan Result // home-site completion channels
}

// Install registers the rear-guard agents at a site and returns the
// manager. Every site on an itinerary (and the origin) needs one.
func Install(site *core.Site) *Manager {
	m := &Manager{
		site:     site,
		Interval: 20 * time.Millisecond,
		Misses:   2,
		guards:   make(map[string]*guard),
		waiters:  make(map[string]chan Result),
	}
	site.Register(AgHop, core.AgentFunc(m.hop))
	site.Register(AgGuard, core.AgentFunc(m.guardOps))
	site.Register(AgHome, core.AgentFunc(m.home))
	return m
}

func guardKey(id string, hop int) string { return id + "/" + strconv.Itoa(hop) }

// persistGuard checkpoints an armed guard into the site cabinet. Called
// with m.mu held: the Put is serialized against release's Delete, so a
// released guard can never be re-persisted into a stale checkpoint. The
// checkpoint briefcase is immutable once armed, so encoding it here is
// race-free. Callers force the durability barrier (DurableSync) after
// dropping m.mu — the barrier is the slow part, and holding the manager
// lock across an fdatasync would serialize every guard operation on disk
// latency.
func (m *Manager) persistGuard(g *guard) {
	f := folder.New()
	f.PushString(g.id)
	f.PushString(strconv.Itoa(g.hop))
	f.PushString(string(g.watch))
	f.PushOwned(folder.EncodeBriefcase(g.bc))
	m.site.Cabinet().Put(ArmFolderPrefix+guardKey(g.id, g.hop), f)
}

// syncCheckpoint forces the durability barrier for a checkpoint mutation.
// A failure (sticky WAL error) cannot be handled here — the guard still
// works for this process's lifetime, but a crash would lose it — so the
// degradation is surfaced in the site log; every meet on the site is
// already failing its own durability barrier with the same error, so the
// operator is being told loudly anyway.
func (m *Manager) syncCheckpoint(op string) {
	if err := m.site.DurableSync(); err != nil {
		m.site.Cabinet().AppendString("LOG",
			fmt.Sprintf("rearguard: %s checkpoint not durable: %v", op, err))
	}
}

// unpersistGuard drops a released guard's checkpoint.
func (m *Manager) unpersistGuard(id string, hop int) {
	m.site.Cabinet().Delete(ArmFolderPrefix + guardKey(id, hop))
}

// Recover re-arms every guard whose checkpoint survives in the site
// cabinet, returning how many were restored. Call it after the cabinet has
// been recovered from stable storage (tacomad does, right after its WAL
// replay) — a restarted site resumes watching the agents it was guarding
// when it crashed. Unreadable checkpoints are dropped rather than trusted.
// A checkpoint is the four-element folder persistGuard writes: id, hop,
// watched site, encoded briefcase (which carries any park continuation).
func (m *Manager) Recover() int {
	n := 0
	for _, name := range m.site.Cabinet().Names() {
		if !strings.HasPrefix(name, ArmFolderPrefix) {
			continue
		}
		f := m.site.Cabinet().Snapshot(name)
		id, err0 := f.StringAt(0)
		hopStr, err1 := f.StringAt(1)
		watch, err2 := f.StringAt(2)
		enc, err3 := f.At(3)
		if err0 != nil || err1 != nil || err2 != nil || err3 != nil {
			m.site.Cabinet().Delete(name)
			continue
		}
		hop, err := strconv.Atoi(hopStr)
		if err != nil {
			m.site.Cabinet().Delete(name)
			continue
		}
		bc, err := folder.DecodeBriefcase(enc)
		if err != nil {
			m.site.Cabinet().Delete(name)
			continue
		}
		m.armGuard(id, hop, vnet.SiteID(watch), bc, false)
		n++
	}
	return n
}

// Launch starts a guarded computation from this manager's site and returns
// a channel that delivers the Result when the computation comes home.
func (m *Manager) Launch(ctx context.Context, cfg Config, payload *folder.Briefcase) (<-chan Result, error) {
	if cfg.ID == "" || cfg.Task == "" || len(cfg.Itinerary) == 0 {
		return nil, errors.New("rearguard: config needs ID, Task, and a non-empty Itinerary")
	}
	bc := folder.NewBriefcase()
	if payload != nil {
		bc.Merge(payload)
	}
	bc.PutString(IDFolder, cfg.ID)
	bc.PutString(HopFolder, "0")
	bc.PutString(TaskFolder, cfg.Task)
	bc.PutString(OriginFolder, string(m.site.ID()))
	bc.PutString(RelaunchFolder, "0")
	itin := folder.New()
	for _, s := range cfg.Itinerary {
		itin.PushString(string(s))
	}
	bc.Put(ItineraryFolder, itin)
	if cfg.Guards {
		bc.PutString(GuardedFolder, "1")
	}

	ch := make(chan Result, 1)
	m.mu.Lock()
	m.waiters[cfg.ID] = ch
	m.mu.Unlock()

	// The origin acts as hop -1: it arms a guard watching the first site
	// (when guards are on) and ships the agent. The briefcase carries a
	// pointer to the armed guard (site + key) so whoever advances next
	// knows exactly whom to dismiss — after a relaunch the guard does NOT
	// sit where the itinerary would suggest.
	first := cfg.Itinerary[0]
	if cfg.Guards {
		bc.PutString(guardSiteFolder, string(m.site.ID()))
		bc.PutString(guardHopFolder, "0")
		m.arm(cfg.ID, 0, first, bc.Clone())
	}
	site := m.site
	site.Go(func() {
		if err := site.Meet(ctx, AgHop, bc.Clone(), core.At(first)); err != nil && !cfg.Guards {
			// Without guards a failed initial move is simply a lost agent.
			return
		}
	})
	return ch, nil
}

// Wait collects a launched computation's result, or Completed=false after
// the timeout.
func Wait(ch <-chan Result, timeout time.Duration) Result {
	select {
	case r := <-ch:
		return r
	case <-time.After(timeout):
		return Result{Completed: false}
	}
}

// hop executes one itinerary step at this site.
func (m *Manager) hop(mc *core.MeetContext, bc *folder.Briefcase) error {
	id, err := bc.GetString(IDFolder)
	if err != nil {
		return fmt.Errorf("rg_agent: %w", err)
	}
	hopStr, err := bc.GetString(HopFolder)
	if err != nil {
		return fmt.Errorf("rg_agent: %w", err)
	}
	hop, err := strconv.Atoi(hopStr)
	if err != nil {
		return fmt.Errorf("rg_agent: bad hop %q", hopStr)
	}
	task, _ := bc.GetString(TaskFolder)
	itin, err := bc.Folder(ItineraryFolder)
	if err != nil {
		return fmt.Errorf("rg_agent: %w", err)
	}

	// Idempotence across relaunch races: execute each hop's task at most
	// once per site per computation. A duplicate arrival (the guard
	// relaunched an agent that had in fact survived) continues the
	// journey without redoing work, and the march forward is then
	// deduplicated at the next hop too.
	fresh := m.site.Cabinet().TestAndAppendString("RG:"+id, hopStr)
	if fresh && task != "" {
		if err := m.site.Meet(mc, task, bc); err != nil {
			bc.Ensure(folder.ErrorFolder).PushString(
				fmt.Sprintf("task %s at %s hop %d: %v", task, m.site.ID(), hop, err))
		}
	}
	return m.advance(mc.Ctx, bc, id, hop, itin)
}

// advance moves the computation from the current hop toward the next,
// arming a new guard here and releasing the one behind.
func (m *Manager) advance(ctx context.Context, bc *folder.Briefcase, id string, hop int, itin *folder.Folder) error {
	guarded := bc.Has(GuardedFolder)

	next := hop + 1
	if next >= itin.Len() {
		// Journey complete: deliver home, then dismiss the guard behind.
		origin, _ := bc.GetString(OriginFolder)
		err := m.site.Meet(ctx, AgHome, bc.Clone(), core.At(vnet.SiteID(origin)))
		if guarded {
			m.releaseBehind(ctx, bc, id)
		}
		return err
	}

	// Find the next live site, skipping dead ones. The mover observes
	// move failures synchronously; the guard only covers failures after
	// a successful handoff.
	dest := vnet.SiteID("")
	for ; next < itin.Len(); next++ {
		cand, _ := itin.StringAt(next)
		if err := m.site.Ping(ctx, vnet.SiteID(cand), 0); err == nil {
			dest = vnet.SiteID(cand)
			break
		}
		bc.Ensure(SkippedFolder).PushString(cand)
	}
	if dest == "" {
		// Nothing left alive: deliver what we have, flagged.
		origin, _ := bc.GetString(OriginFolder)
		bc.Ensure(folder.ErrorFolder).PushString(ErrAllDead.Error())
		err := m.site.Meet(ctx, AgHome, bc.Clone(), core.At(vnet.SiteID(origin)))
		if guarded {
			m.releaseBehind(ctx, bc, id)
		}
		return err
	}

	// Remember who currently guards us, then arm the next guard here and
	// record its pointer — the checkpoint cloned for the new guard must
	// point at the new guard itself, so that an agent it relaunches knows
	// to dismiss it.
	oldSite, _ := bc.GetString(guardSiteFolder)
	oldKey, _ := bc.GetString(guardHopFolder)
	bc.PutString(HopFolder, strconv.Itoa(next))
	if guarded {
		bc.PutString(guardSiteFolder, string(m.site.ID()))
		bc.PutString(guardHopFolder, strconv.Itoa(next))
		m.arm(id, next, dest, bc.Clone())
	}
	// Detached move: no site holds an RPC open for the rest of the
	// journey, so a crash here after the handoff kills nothing.
	site := m.site
	moveBC := bc.Clone()
	site.Go(func() {
		if err := site.Meet(ctx, AgHop, moveBC, core.At(dest)); err != nil {
			// The handoff failed after the ping said the site was alive.
			// The guard armed above (or an earlier one) will relaunch.
			site.Cabinet().AppendString("LOG",
				fmt.Sprintf("rg move %s hop %d to %s failed: %v", id, next, dest, err))
		}
	})
	if guarded {
		m.releaseAt(ctx, oldSite, oldKey, id)
	}
	return nil
}

// releaseBehind dismisses the guard the briefcase points at. Failures are
// ignored — a dead guard site needs no dismissal.
func (m *Manager) releaseBehind(ctx context.Context, bc *folder.Briefcase, id string) {
	gsite, _ := bc.GetString(guardSiteFolder)
	gkey, _ := bc.GetString(guardHopFolder)
	m.releaseAt(ctx, gsite, gkey, id)
}

// releaseAt sends a release for guard (id, key) to the named site.
func (m *Manager) releaseAt(ctx context.Context, gsite, gkey, id string) {
	if gsite == "" || gkey == "" {
		return
	}
	rel := folder.NewBriefcase()
	rel.PutString(opFolder, "release")
	rel.PutString(IDFolder, id)
	rel.PutString(hopOfGuard, gkey)
	site := m.site
	site.Go(func() {
		_ = site.Meet(ctx, AgGuard, rel, core.At(vnet.SiteID(gsite)))
	})
}

// guardOps serves arm/release requests addressed to this site's guards.
func (m *Manager) guardOps(mc *core.MeetContext, bc *folder.Briefcase) error {
	op, err := bc.GetString(opFolder)
	if err != nil {
		return fmt.Errorf("rg_guard: %w", err)
	}
	id, err := bc.GetString(IDFolder)
	if err != nil {
		return fmt.Errorf("rg_guard: %w", err)
	}
	hopStr, err := bc.GetString(hopOfGuard)
	if err != nil {
		return fmt.Errorf("rg_guard: %w", err)
	}
	hop, err := strconv.Atoi(hopStr)
	if err != nil {
		return fmt.Errorf("rg_guard: bad hop %q", hopStr)
	}
	switch op {
	case "release":
		m.mu.Lock()
		g := m.guards[guardKey(id, hop)]
		delete(m.guards, guardKey(id, hop))
		m.unpersistGuard(id, hop)
		m.mu.Unlock()
		if g != nil {
			g.release()
		}
		return nil
	default:
		return fmt.Errorf("rg_guard: unknown op %q", op)
	}
}

// arm starts a rear guard at this site watching the given destination: if
// the destination stops answering pings before the guard is released, the
// guard relaunches the computation from its checkpoint.
func (m *Manager) arm(id string, hop int, watch vnet.SiteID, checkpoint *folder.Briefcase) {
	m.armGuard(id, hop, watch, checkpoint, true)
}

// armGuard arms a rear guard; persist=false is the recovery path, where
// the checkpoint being re-armed was just read from the cabinet — its
// durability is the very thing recovery proved, so re-journaling it (and
// paying one fdatasync per recovered guard) would be pure waste.
func (m *Manager) armGuard(id string, hop int, watch vnet.SiteID, checkpoint *folder.Briefcase, persist bool) {
	g := &guard{id: id, hop: hop, watch: watch, bc: checkpoint, cancel: make(chan struct{})}
	key := guardKey(id, hop)
	m.mu.Lock()
	if old := m.guards[key]; old != nil {
		old.release()
	}
	m.guards[key] = g
	if persist {
		// Checkpointed under m.mu so a racing release cannot be overtaken
		// and leave a stale checkpoint behind; the barrier below makes it
		// durable before the agent the guard protects is allowed to move
		// (arm is called before the detached hop meet is spawned).
		m.persistGuard(g)
	}
	m.mu.Unlock()
	if persist {
		m.syncCheckpoint("arm")
	}

	site := m.site
	site.Go(func() {
		misses := 0
		// Baseline the watched site's incarnation immediately: a crash and
		// restart that both happen before the first periodic probe would
		// otherwise go unnoticed.
		lastInc := int64(-1)
		if inc, err := site.PingIncarnation(context.Background(), g.watch, 0); err == nil {
			lastInc = inc
		}
		ticker := time.NewTicker(m.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-g.cancel:
				return
			case <-ticker.C:
				inc, err := site.PingIncarnation(context.Background(), g.watch, 0)
				if errors.Is(err, vnet.ErrCrashed) || errors.Is(err, vnet.ErrClosed) {
					// Our own site went down or is shutting down: the guard
					// dies with it — without releasing, so its durable
					// checkpoint survives for Recover to re-arm. (Without
					// the ErrClosed case, a graceful restart's endpoint
					// Close would drive the watcher through the all-dead
					// relaunch path, durably deleting the very checkpoint
					// the WAL exists to preserve.)
					return
				}
				restarted := err == nil && lastInc >= 0 && inc != lastInc
				if err == nil {
					lastInc = inc
					misses = 0
				} else {
					misses++
				}
				if !restarted && misses < m.Misses {
					continue
				}
				// The protected agent has vanished — either the watched
				// site stopped answering, or it answered under a new
				// incarnation (it crashed and rebooted between probes,
				// taking its agents with it). Relaunch from the
				// checkpoint; hop marks in cabinets deduplicate if the
				// original had in fact survived.
				m.relaunch(g)
				misses = 0
				lastInc = -1 // the watch target may have changed
			}
		}
	})
}

// relaunch re-injects the checkpointed agent at the first live site of the
// remaining itinerary.
func (m *Manager) relaunch(g *guard) {
	bc := g.bc.Clone()
	if n, err := bc.GetString(RelaunchFolder); err == nil {
		if v, err := strconv.Atoi(n); err == nil {
			bc.PutString(RelaunchFolder, strconv.Itoa(v+1))
		}
	}
	itin, err := bc.Folder(ItineraryFolder)
	if err != nil {
		return
	}
	ctx := context.Background()
	for next := g.hop; next < itin.Len(); next++ {
		cand, _ := itin.StringAt(next)
		if err := m.site.Ping(ctx, vnet.SiteID(cand), 0); err != nil {
			if errors.Is(err, vnet.ErrClosed) || errors.Is(err, vnet.ErrCrashed) {
				// Our own endpoint is closing (or crashed): every candidate
				// would look dead from here. Abandon the relaunch with the
				// guard and its durable checkpoint intact — falling through
				// to the all-dead path would delete the checkpoint and send
				// a spurious flagged result during a graceful restart.
				return
			}
			bc.Ensure(SkippedFolder).PushString(cand)
			continue
		}
		bc.PutString(HopFolder, strconv.Itoa(next))
		g.watch = vnet.SiteID(cand) // keep guarding the relaunched agent
		m.mu.Lock()
		if m.guards[guardKey(g.id, g.hop)] == g {
			// The durable checkpoint tracks the new watch — but only while
			// this guard is still the armed one: a release that landed
			// since the watcher woke has already deleted the checkpoint,
			// and re-persisting would resurrect it forever.
			m.persistGuard(g)
		}
		m.mu.Unlock()
		m.syncCheckpoint("relaunch")
		site := m.site
		launch := bc.Clone()
		site.Go(func() {
			_ = site.Meet(ctx, AgHop, launch, core.At(vnet.SiteID(cand)))
		})
		return
	}
	// Everything ahead is dead; deliver the checkpoint home, flagged.
	origin, _ := bc.GetString(OriginFolder)
	bc.Ensure(folder.ErrorFolder).PushString(ErrAllDead.Error())
	site := m.site
	final := bc.Clone()
	site.Go(func() {
		_ = site.Meet(ctx, AgHome, final, core.At(vnet.SiteID(origin)))
	})
	g.release()
	m.mu.Lock()
	delete(m.guards, guardKey(g.id, g.hop))
	m.unpersistGuard(g.id, g.hop)
	m.mu.Unlock()
	// This runs in the watcher goroutine, not a meet, so no depth-0 meet
	// barrier will sync the delete for us; without one a quiet site could
	// hold it in the WAL tail indefinitely, and a crash would resurrect
	// the guard — redelivering this flagged result after every reboot.
	m.syncCheckpoint("release")
}

// home receives a finished computation at its origin and wakes the waiter.
// Duplicate deliveries (relaunch races) are collapsed: first one wins.
func (m *Manager) home(mc *core.MeetContext, bc *folder.Briefcase) error {
	id, err := bc.GetString(IDFolder)
	if err != nil {
		return fmt.Errorf("rg_home: %w", err)
	}
	m.mu.Lock()
	ch := m.waiters[id]
	delete(m.waiters, id)
	m.mu.Unlock()
	if ch == nil {
		return nil // duplicate delivery
	}
	res := Result{ID: id, Completed: true, Briefcase: bc.Clone()}
	if n, err := bc.GetString(RelaunchFolder); err == nil {
		res.Relaunches, _ = strconv.Atoi(n)
	}
	if sk, err := bc.Folder(SkippedFolder); err == nil {
		res.Skipped = sk.Strings()
	}
	ch <- res
	return nil
}

// ActiveGuards reports how many guards are currently armed at this site.
func (m *Manager) ActiveGuards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.guards)
}

// GuardKeys returns the sorted "id/hop" keys of every armed guard. The
// replication failover tests compare a promoted follower's guard set
// against the dead leader's to assert zero guards were lost.
func (m *Manager) GuardKeys() []string {
	m.mu.Lock()
	keys := make([]string, 0, len(m.guards))
	for k := range m.guards {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	sort.Strings(keys)
	return keys
}
