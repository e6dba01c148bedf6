package rearguard

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// testRig builds n sites with rearguard managers, a trail-recording task,
// and short detection intervals.
func testRig(t *testing.T, n int) (*core.System, []*Manager) {
	t.Helper()
	sys := core.NewSystem(n, core.SystemConfig{Seed: 11, CallTimeout: 25 * time.Millisecond})
	managers := make([]*Manager, n)
	for i := 0; i < n; i++ {
		m := Install(sys.SiteAt(i))
		m.Interval = 10 * time.Millisecond
		m.Misses = 2
		managers[i] = m
		sys.SiteAt(i).Register("trail", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
			bc.Ensure("TRAIL").PushString(string(mc.Site.ID()))
			return nil
		}))
	}
	return sys, managers
}

func itinerary(ids ...int) []vnet.SiteID {
	out := make([]vnet.SiteID, len(ids))
	for i, id := range ids {
		out[i] = vnet.SiteID(fmt.Sprintf("site-%d", id))
	}
	return out
}

func TestHappyPathNoFailures(t *testing.T) {
	sys, managers := testRig(t, 4)
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "c1", Task: "trail", Itinerary: itinerary(1, 2, 3), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("computation did not complete")
	}
	trail, _ := res.Briefcase.Folder("TRAIL")
	want := []string{"site-1", "site-2", "site-3"}
	got := trail.Strings()
	if len(got) != len(want) {
		t.Fatalf("TRAIL = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TRAIL = %v", got)
		}
	}
	if res.Relaunches != 0 || len(res.Skipped) != 0 {
		t.Fatalf("unexpected recovery: %+v", res)
	}
	// All guards must have self-terminated.
	deadline := time.After(2 * time.Second)
	for _, m := range managers {
		for m.ActiveGuards() != 0 {
			select {
			case <-deadline:
				t.Fatalf("guards leaked: %d", m.ActiveGuards())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	sys.Wait()
}

func TestUnguardedDiesOnCrash(t *testing.T) {
	sys, managers := testRig(t, 4)
	// Crash the middle site before the agent reaches it... but the mover
	// skips dead sites. To kill an unguarded computation, crash the site
	// while the agent is executing there.
	blocker := make(chan struct{})
	reached := make(chan struct{})
	sys.SiteAt(2).Register("trail", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		close(reached)
		<-blocker
		return nil
	}))
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "u1", Task: "trail", Itinerary: itinerary(1, 2, 3), Guards: false,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	sys.Net.Crash("site-2") // the agent vanishes mid-task
	close(blocker)
	res := Wait(ch, 300*time.Millisecond)
	if res.Completed {
		t.Fatal("unguarded computation survived a crash")
	}
}

func TestGuardedSurvivesCrash(t *testing.T) {
	sys, managers := testRig(t, 4)
	blocker := make(chan struct{})
	reached := make(chan struct{})
	sys.SiteAt(2).Register("trail", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		close(reached)
		<-blocker
		return nil
	}))
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "g1", Task: "trail", Itinerary: itinerary(1, 2, 3), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	sys.Net.Crash("site-2")
	close(blocker)
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("guarded computation did not survive the crash")
	}
	if res.Relaunches == 0 {
		t.Fatalf("no relaunch recorded: %+v", res)
	}
	// site-2's hop was lost with the site; the relaunch skipped it.
	trail, _ := res.Briefcase.Folder("TRAIL")
	found1, found3 := false, false
	for _, s := range trail.Strings() {
		if s == "site-1" {
			found1 = true
		}
		if s == "site-3" {
			found3 = true
		}
	}
	if !found1 || !found3 {
		t.Fatalf("TRAIL = %v", trail.Strings())
	}
}

func TestGuardedSkipsDeadSiteAtMove(t *testing.T) {
	sys, managers := testRig(t, 4)
	sys.Net.Crash("site-2") // dead before the journey starts
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "s1", Task: "trail", Itinerary: itinerary(1, 2, 3), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("computation did not complete")
	}
	if len(res.Skipped) != 1 || res.Skipped[0] != "site-2" {
		t.Fatalf("Skipped = %v", res.Skipped)
	}
	trail, _ := res.Briefcase.Folder("TRAIL")
	got := trail.Strings()
	if len(got) != 2 || got[0] != "site-1" || got[1] != "site-3" {
		t.Fatalf("TRAIL = %v", got)
	}
}

func TestCyclicItinerary(t *testing.T) {
	// The paper flags cyclic traversals as the hard case: the same site
	// appears twice, so guard keys and idempotence marks must be
	// hop-scoped, not site-scoped.
	sys, managers := testRig(t, 3)
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "cyc", Task: "trail", Itinerary: itinerary(1, 2, 1, 2), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("cyclic computation did not complete")
	}
	trail, _ := res.Briefcase.Folder("TRAIL")
	want := []string{"site-1", "site-2", "site-1", "site-2"}
	got := trail.Strings()
	if len(got) != len(want) {
		t.Fatalf("TRAIL = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TRAIL = %v", got)
		}
	}
	sys.Wait()
}

func TestAllRemainingSitesDead(t *testing.T) {
	sys, managers := testRig(t, 4)
	sys.Net.Crash("site-2")
	sys.Net.Crash("site-3")
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "dead", Task: "trail", Itinerary: itinerary(1, 2, 3), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("partial result never delivered")
	}
	errs, err2 := res.Briefcase.Folder(folder.ErrorFolder)
	if err2 != nil || errs.Len() == 0 {
		t.Fatal("all-dead condition not flagged")
	}
	trail, _ := res.Briefcase.Folder("TRAIL")
	if got := trail.Strings(); len(got) != 1 || got[0] != "site-1" {
		t.Fatalf("TRAIL = %v", got)
	}
}

func TestFirstSiteDeadAtLaunch(t *testing.T) {
	sys, managers := testRig(t, 3)
	sys.Net.Crash("site-1")
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "f1", Task: "trail", Itinerary: itinerary(1, 2), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The origin's guard detects the failed handoff and relaunches at the
	// next live site.
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("computation lost on dead first site")
	}
	trail, _ := res.Briefcase.Folder("TRAIL")
	if got := trail.Strings(); len(got) != 1 || got[0] != "site-2" {
		t.Fatalf("TRAIL = %v", got)
	}
}

func TestLaunchValidation(t *testing.T) {
	_, managers := testRig(t, 2)
	cases := []Config{
		{},
		{ID: "x"},
		{ID: "x", Task: "t"},
		{Task: "t", Itinerary: itinerary(1)},
	}
	for _, cfg := range cases {
		if _, err := managers[0].Launch(context.Background(), cfg, nil); err == nil {
			t.Errorf("Launch(%+v) succeeded", cfg)
		}
	}
}

func TestPayloadTravels(t *testing.T) {
	sys, managers := testRig(t, 2)
	payload := folder.NewBriefcase()
	payload.PutString("QUERY", "storm?")
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "p1", Task: "trail", Itinerary: itinerary(1), Guards: true,
	}, payload)
	if err != nil {
		t.Fatal(err)
	}
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("not completed")
	}
	if q, _ := res.Briefcase.GetString("QUERY"); q != "storm?" {
		t.Fatalf("QUERY = %q", q)
	}
	sys.Wait()
}

func TestManyConcurrentComputations(t *testing.T) {
	sys, managers := testRig(t, 5)
	const n = 20
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		ch, err := managers[0].Launch(context.Background(), Config{
			ID: fmt.Sprintf("многие-%d", i), Task: "trail",
			Itinerary: itinerary(1, 2, 3, 4), Guards: true,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		res := Wait(ch, 10*time.Second)
		if !res.Completed {
			t.Fatalf("computation %d incomplete", i)
		}
		if tr, _ := res.Briefcase.Folder("TRAIL"); tr.Len() != 4 {
			t.Fatalf("computation %d trail = %v", i, tr.Strings())
		}
	}
	sys.Wait()
}

func TestDuplicateHomeDeliveriesCollapsed(t *testing.T) {
	// Simulate a relaunch race by delivering the same result twice: the
	// second delivery must be dropped silently.
	sys, managers := testRig(t, 2)
	_ = sys
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "dup", Task: "trail", Itinerary: itinerary(1), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("not completed")
	}
	// Manual duplicate delivery.
	dupBC := res.Briefcase.Clone()
	if err := sys.SiteAt(0).Meet(context.Background(), AgHome, dupBC); err != nil {
		t.Fatalf("duplicate home delivery errored: %v", err)
	}
}

func TestGuardReleaseOpValidation(t *testing.T) {
	sys, _ := testRig(t, 1)
	bad := folder.NewBriefcase()
	if err := sys.SiteAt(0).Meet(context.Background(), AgGuard, bad); err == nil {
		t.Fatal("missing op accepted")
	}
	bad2 := folder.NewBriefcase()
	bad2.PutString(opFolder, "explode")
	bad2.PutString(IDFolder, "x")
	bad2.PutString(hopOfGuard, "0")
	if err := sys.SiteAt(0).Meet(context.Background(), AgGuard, bad2); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestCrashAfterHandoffBeforeRelease(t *testing.T) {
	// The agent moves 1 -> 2; site-1 (holding the guard for hop 1) crashes
	// right after. Releasing the dead guard must fail silently and the
	// computation still completes.
	sys, managers := testRig(t, 4)
	reached2 := make(chan struct{})
	blocker := make(chan struct{})
	sys.SiteAt(2).Register("trail", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		bc.Ensure("TRAIL").PushString("site-2")
		close(reached2)
		<-blocker
		return nil
	}))
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "cr", Task: "trail", Itinerary: itinerary(1, 2, 3), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-reached2
	sys.Net.Crash("site-1")
	close(blocker)
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("crash of a guard site killed the computation")
	}
}

func TestPartitionFalsePositiveIsHarmless(t *testing.T) {
	// A partition between the guard's site and the watched site makes the
	// guard believe its agent vanished. The relaunch it triggers is a
	// duplicate — but hop marks keep task execution at-most-once per hop
	// and the home site collapses duplicate deliveries, so the computation
	// still completes exactly once with every hop's work done once.
	sys, managers := testRig(t, 5)
	slowdown := make(chan struct{})
	sys.SiteAt(2).Register("trail", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		bc.Ensure("TRAIL").PushString(string(mc.Site.ID()))
		<-slowdown // keep the agent here long enough for the guard to misfire
		return nil
	}))
	// Partition the guard at site-1 away from its watch target site-2.
	go func() {
		time.Sleep(5 * time.Millisecond)
		sys.Net.Partition("site-1", "site-2")
		time.Sleep(60 * time.Millisecond) // > Misses × Interval: guard misfires
		sys.Net.Heal("site-1", "site-2")
		close(slowdown)
	}()
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "part", Task: "trail", Itinerary: itinerary(1, 2, 3, 4), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("computation lost to a partition false positive")
	}
	// Every site's task ran exactly once despite the duplicate agent.
	for i := 1; i <= 4; i++ {
		marks := sys.SiteAt(i).Cabinet().FolderLen("RG:part")
		if marks != 1 {
			t.Fatalf("site-%d has %d hop marks, want 1", i, marks)
		}
	}
	sys.Wait()
}

func TestGuardIncarnationDetectsFastReboot(t *testing.T) {
	// The victim crashes AND restarts between two guard probes: no probe
	// ever fails, but the incarnation changed — the guard must still
	// relaunch the lost agent.
	sys, managers := testRig(t, 4)
	for i := range managers {
		managers[i].Interval = 50 * time.Millisecond // slow detector
	}
	blocker := make(chan struct{})
	sys.SiteAt(2).Register("trail", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		if !mc.Site.Cabinet().ContainsString("REBOOTED", "once") {
			<-blocker
		}
		bc.Ensure("TRAIL").PushString(string(mc.Site.ID()))
		return nil
	}))
	go func() {
		time.Sleep(10 * time.Millisecond)
		sys.SiteAt(2).Cabinet().AppendString("REBOOTED", "once")
		sys.Net.Crash("site-2")
		close(blocker)
		time.Sleep(15 * time.Millisecond) // reboot well inside one probe gap
		sys.Net.Restart("site-2")
	}()
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "fastboot", Task: "trail", Itinerary: itinerary(1, 2, 3), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("fast reboot went undetected; computation lost")
	}
	if res.Relaunches == 0 {
		t.Fatalf("no relaunch recorded: %+v", res)
	}
	sys.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGuardCheckpointPersistedAndRecovered pins the durable rear-guard
// story: an armed guard's checkpoint lives in the site cabinet (so a
// WAL-backed cabinet carries it across a crash), Recover re-arms it from
// there, and the re-armed guard still does its job — relaunching the
// computation when the watched site dies.
func TestGuardCheckpointPersistedAndRecovered(t *testing.T) {
	sys, managers := testRig(t, 3)
	blocker := make(chan struct{})
	defer close(blocker)
	reached := make(chan struct{})
	sys.SiteAt(2).Register("trail", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		close(reached)
		<-blocker
		return nil
	}))

	// site-1 -> site-2 (stalls) -> site-1: while the agent is stuck at
	// site-2, site-1 holds the armed guard watching it.
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "persist-1", Task: "trail", Itinerary: itinerary(1, 2, 1), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	m1 := managers[1]
	waitFor(t, "guard armed at site-1", func() bool { return m1.ActiveGuards() == 1 })
	waitFor(t, "origin guard released", func() bool { return managers[0].ActiveGuards() == 0 })

	// The checkpoint must be in the cabinet — that is what the WAL journals.
	cab := sys.SiteAt(1).Cabinet()
	armed := 0
	for _, name := range cab.Names() {
		if strings.HasPrefix(name, ArmFolderPrefix) {
			armed++
		}
	}
	if armed != 1 {
		t.Fatalf("site-1 cabinet holds %d guard checkpoints, want 1", armed)
	}

	// Simulate site-1 crashing and rebooting with a recovered cabinet: the
	// in-memory guard state is wiped, the cabinet survives.
	m1.mu.Lock()
	for _, g := range m1.guards {
		g.release()
	}
	m1.guards = make(map[string]*guard)
	m1.mu.Unlock()
	if m1.ActiveGuards() != 0 {
		t.Fatal("in-memory guards not cleared")
	}

	if n := m1.Recover(); n != 1 {
		t.Fatalf("Recover re-armed %d guards, want 1", n)
	}
	if m1.ActiveGuards() != 1 {
		t.Fatalf("ActiveGuards = %d after recovery", m1.ActiveGuards())
	}

	// The recovered guard must still protect the computation: kill the
	// watched site and the journey finishes via relaunch (site-2 skipped,
	// the final site-1 hop executed).
	sys.Net.Crash("site-2")
	res := Wait(ch, 5*time.Second)
	if !res.Completed {
		t.Fatal("recovered guard never relaunched the computation")
	}
	if res.Relaunches == 0 {
		t.Fatalf("no relaunch recorded: %+v", res)
	}
	// Checkpoint removed once the recovered computation moved on.
	waitFor(t, "checkpoint cleared", func() bool {
		for _, name := range sys.SiteAt(1).Cabinet().Names() {
			if strings.HasPrefix(name, ArmFolderPrefix) {
				return false
			}
		}
		return true
	})
}

// TestCheckpointFormats pins the checkpoint layout — id, hop, watched
// site, encoded briefcase, nothing else — and checks that a resident
// (parked) agent's checkpoint recovers into a guard whose briefcase still
// carries its park continuation, so a relaunch restarts it as the parked
// agent it was.
func TestCheckpointFormats(t *testing.T) {
	sys, managers := testRig(t, 2)
	m := managers[1]
	cab := sys.SiteAt(1).Cabinet()

	parked := folder.NewBriefcase()
	parked.PutString(core.ParkNameFolder, "sensor-7")
	parked.PutString(core.ParkWatchFolder, "MBOX:sensor-7")
	m.mu.Lock()
	m.persistGuard(&guard{id: "fmt-1", hop: 2, watch: "site-0", bc: parked})
	m.mu.Unlock()
	f := cab.Snapshot(ArmFolderPrefix + "fmt-1/2")
	if f.Len() != 4 {
		t.Fatalf("checkpoint has %d elements, want 4", f.Len())
	}
	for i, want := range []string{"fmt-1", "2", "site-0"} {
		if got, _ := f.StringAt(i); got != want {
			t.Fatalf("element %d = %q, want %q", i, got, want)
		}
	}
	if enc, _ := f.At(3); !bytes.Equal(enc, folder.EncodeBriefcase(parked)) {
		t.Fatal("element 3 is not the encoded briefcase")
	}

	if n := m.Recover(); n != 1 {
		t.Fatalf("Recover re-armed %d guards, want 1", n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.guards[guardKey("fmt-1", 2)]
	if g == nil {
		t.Fatal("recovered guard not armed")
	}
	if name, _ := g.bc.GetString(core.ParkNameFolder); name != "sensor-7" {
		t.Fatalf("recovered %s = %q", core.ParkNameFolder, name)
	}
	if watch, _ := g.bc.GetString(core.ParkWatchFolder); watch != "MBOX:sensor-7" {
		t.Fatalf("recovered %s = %q", core.ParkWatchFolder, watch)
	}
	for _, g := range m.guards {
		g.release()
	}
}

// TestReleasedGuardRemovesCheckpoint: a clean journey leaves no checkpoint
// folders behind on any site.
func TestReleasedGuardRemovesCheckpoint(t *testing.T) {
	sys, managers := testRig(t, 4)
	ch, err := managers[0].Launch(context.Background(), Config{
		ID: "clean-1", Task: "trail", Itinerary: itinerary(1, 2, 3), Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := Wait(ch, 5*time.Second); !res.Completed {
		t.Fatal("computation did not complete")
	}
	for i := 0; i < 4; i++ {
		i := i
		waitFor(t, "checkpoints cleared", func() bool {
			for _, name := range sys.SiteAt(i).Cabinet().Names() {
				if strings.HasPrefix(name, ArmFolderPrefix) {
					return false
				}
			}
			return true
		})
	}
	sys.Wait()
}
