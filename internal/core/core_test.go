package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/folder"
	"repro/internal/vnet"
)

func testSystem(t *testing.T, n int) *System {
	t.Helper()
	sys := NewSystem(n, SystemConfig{Seed: 1, CallTimeout: 50 * time.Millisecond})
	t.Cleanup(sys.Wait)
	return sys
}

func TestLocalMeetSharesBriefcase(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	s.Register("adder", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		a, _ := bc.GetString("A")
		b, _ := bc.GetString("B")
		bc.PutString(folder.ResultFolder, a+b)
		return nil
	}))
	bc := folder.NewBriefcase()
	bc.PutString("A", "foo")
	bc.PutString("B", "bar")
	if err := s.Meet(context.Background(), "adder", bc); err != nil {
		t.Fatal(err)
	}
	got, _ := bc.GetString(folder.ResultFolder)
	if got != "foobar" {
		t.Fatalf("RESULT = %q", got)
	}
}

func TestMeetUnknownAgent(t *testing.T) {
	sys := testSystem(t, 1)
	err := sys.SiteAt(0).Meet(context.Background(), "ghost", folder.NewBriefcase())
	if !errors.Is(err, ErrNoAgent) {
		t.Fatalf("err = %v, want ErrNoAgent", err)
	}
}

func TestMeetContextIdentity(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	var sawFrom, sawAgent string
	s.Register("inner", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		sawFrom, sawAgent = mc.From, mc.Agent
		return nil
	}))
	s.Register("outer", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		return mc.Site.Meet(mc, "inner", bc)
	}))
	if err := s.Meet(context.Background(), "outer", folder.NewBriefcase()); err != nil {
		t.Fatal(err)
	}
	if sawFrom != "outer" || sawAgent != "inner" {
		t.Fatalf("from=%q agent=%q", sawFrom, sawAgent)
	}
}

func TestMeetDepthBounded(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	s.Register("loop", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		return mc.Site.Meet(mc, "loop", bc)
	}))
	err := s.Meet(context.Background(), "loop", folder.NewBriefcase())
	if !errors.Is(err, ErrMeetDepth) {
		t.Fatalf("err = %v, want ErrMeetDepth", err)
	}
}

func TestAdmissionPolicy(t *testing.T) {
	net := vnet.NewNetwork()
	s := NewSite(net.AddNode("gated"), SiteConfig{
		Admission: func(agent, from string) error {
			if agent == "banned" {
				return errors.New("not welcome")
			}
			return nil
		},
	})
	s.Register("banned", AgentFunc(func(*MeetContext, *folder.Briefcase) error { return nil }))
	s.Register("fine", AgentFunc(func(*MeetContext, *folder.Briefcase) error { return nil }))
	if err := s.Meet(context.Background(), "banned", folder.NewBriefcase()); !errors.Is(err, ErrRefused) {
		t.Fatalf("banned err = %v", err)
	}
	if err := s.Meet(context.Background(), "fine", folder.NewBriefcase()); err != nil {
		t.Fatalf("fine err = %v", err)
	}
}

func TestRemoteMeetMutatesBriefcase(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	b.Register("stamper", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("STAMP", string(mc.Site.ID()))
		return nil
	}))
	bc := folder.NewBriefcase()
	bc.PutString("PAYLOAD", "data")
	if err := a.Meet(context.Background(), "stamper", bc, At(b.ID())); err != nil {
		t.Fatal(err)
	}
	stamp, _ := bc.GetString("STAMP")
	if stamp != "site-1" {
		t.Fatalf("STAMP = %q", stamp)
	}
	if payload, _ := bc.GetString("PAYLOAD"); payload != "data" {
		t.Fatalf("PAYLOAD lost: %q", payload)
	}
}

func TestRemoteMeetToSelfShortCircuits(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	s.Register("echo", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("OK", "1")
		return nil
	}))
	before := sys.Net.Stats().Messages
	bc := folder.NewBriefcase()
	if err := s.Meet(context.Background(), "echo", bc, At(s.ID())); err != nil {
		t.Fatal(err)
	}
	if sys.Net.Stats().Messages != before {
		t.Fatal("self meet used the network")
	}
	if ok, _ := bc.GetString("OK"); ok != "1" {
		t.Fatal("self meet lost mutation")
	}
}

func TestRemoteMeetErrorPropagates(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	b.Register("failing", AgentFunc(func(*MeetContext, *folder.Briefcase) error {
		return errors.New("service exploded")
	}))
	err := a.Meet(context.Background(), "failing", folder.NewBriefcase(), At(b.ID()))
	if err == nil || !strings.Contains(err.Error(), "service exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteMeetCrashedSite(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	sys.Net.Crash(b.ID())
	err := a.Meet(context.Background(), AgTacl, folder.NewBriefcase(), At(b.ID()))
	if !errors.Is(err, vnet.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestPing(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	if err := a.Ping(context.Background(), b.ID(), time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Net.Crash(b.ID())
	if err := a.Ping(context.Background(), b.ID(), time.Second); err == nil {
		t.Fatal("ping to crashed site succeeded")
	}
}

func TestActivationAndLoadCounters(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	started := make(chan struct{})
	release := make(chan struct{})
	s.Register("slow", AgentFunc(func(*MeetContext, *folder.Briefcase) error {
		close(started)
		<-release
		return nil
	}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Meet(context.Background(), "slow", folder.NewBriefcase())
	}()
	<-started
	if s.Load() != 1 {
		t.Fatalf("Load = %d, want 1", s.Load())
	}
	close(release)
	wg.Wait()
	if s.Load() != 0 {
		t.Fatalf("Load after completion = %d", s.Load())
	}
	if s.Activations() != 1 {
		t.Fatalf("Activations = %d", s.Activations())
	}
}

func TestRegisterUnregisterLookup(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	s.Register("x", AgentFunc(func(*MeetContext, *folder.Briefcase) error { return nil }))
	if _, ok := s.Lookup("x"); !ok {
		t.Fatal("x not found")
	}
	s.Unregister("x")
	if _, ok := s.Lookup("x"); ok {
		t.Fatal("x survived Unregister")
	}
	names := s.AgentNames()
	// System agents must be present.
	for _, want := range []string{AgTacl, AgRexec, AgCourier, AgDiffusion} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("system agent %q missing from %v", want, names)
		}
	}
}

func TestMeetRequestWireRoundTrip(t *testing.T) {
	bc := folder.NewBriefcase()
	bc.PutString("K", "v")
	bc.Put("BLOB", bigFolder('b', 300))
	c := folder.NewDeltaCache(0)
	data := appendMeetRequestV2(nil, "agent-x", "site-origin", bc, c, nil, nil, nil)
	agent, origin, got, missing, err := decodeMeetRequestV2(data, c.Get, nil)
	if err != nil || len(missing) > 0 {
		t.Fatalf("err=%v missing=%d", err, len(missing))
	}
	if agent != "agent-x" || origin != "site-origin" || !got.Equal(bc) {
		t.Fatalf("round trip: %q %q %v", agent, origin, got)
	}
}

// TestMeetRequestDecodeErrors feeds malformed meet frames — outside input
// on every open endpoint — and requires each to be refused, not served.
func TestMeetRequestDecodeErrors(t *testing.T) {
	none := func(folder.Hash) ([]byte, bool) { return nil, false }
	for name, data := range map[string][]byte{
		"empty":            {},
		"truncated agent":  {0x05, 'a'},
		"truncated origin": {0x01, 'a', 0x05, 'b'},
		"bad briefcase":    {0x01, 'a', 0x01, 'b', 0xFF},
	} {
		if _, _, _, _, err := decodeMeetRequestV2(data, none, nil); err == nil {
			t.Errorf("%s: decodeMeetRequestV2(%v) succeeded", name, data)
		}
	}
}

// TestHandleCallUnknownKind: kinds the kernel does not serve are refused,
// including "meet", the retired whole-briefcase meet frame.
func TestHandleCallUnknownKind(t *testing.T) {
	sys := testSystem(t, 2)
	a := sys.SiteAt(0)
	for _, kind := range []string{"bogus", "meet"} {
		_, err := a.Endpoint().Call(context.Background(), sys.SiteAt(1).ID(), kind, nil)
		if err == nil || !strings.Contains(err.Error(), "unknown message kind") {
			t.Fatalf("kind %q: err = %v", kind, err)
		}
	}
}

func TestSystemTopologies(t *testing.T) {
	ring := testSystem(t, 4)
	ring.Ring()
	n0 := ring.SiteAt(0).Cabinet().Snapshot(folder.SitesFolder).Strings()
	if len(n0) != 2 {
		t.Fatalf("ring degree = %d, want 2: %v", len(n0), n0)
	}

	mesh := testSystem(t, 4)
	mesh.FullMesh()
	if got := mesh.SiteAt(0).Cabinet().FolderLen(folder.SitesFolder); got != 3 {
		t.Fatalf("mesh degree = %d, want 3", got)
	}

	grid := testSystem(t, 6)
	if err := grid.Grid(3, 2); err != nil {
		t.Fatal(err)
	}
	// Corner has 2 neighbours, middle of long edge has 3.
	if got := grid.SiteAt(0).Cabinet().FolderLen(folder.SitesFolder); got != 2 {
		t.Fatalf("corner degree = %d", got)
	}
	if got := grid.SiteAt(1).Cabinet().FolderLen(folder.SitesFolder); got != 3 {
		t.Fatalf("edge degree = %d", got)
	}
	if err := grid.Grid(4, 2); err == nil {
		t.Fatal("mismatched grid accepted")
	}
}

func TestConnectIdempotent(t *testing.T) {
	sys := testSystem(t, 2)
	sys.Connect("site-0", "site-1")
	sys.Connect("site-0", "site-1")
	if got := sys.SiteAt(0).Cabinet().FolderLen(folder.SitesFolder); got != 1 {
		t.Fatalf("duplicate neighbours: %d", got)
	}
	sys.Connect("site-0", "nonexistent") // must not panic
}

func TestContextCancelsMeet(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Meet(ctx, AgTacl, folder.NewBriefcase())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteMeetIdentityForPolicies(t *testing.T) {
	// Agents arriving over the wire must be identified as rexec@<origin>
	// to the destination's admission policy — sites are autonomous and
	// their policies need to know who is knocking.
	net := vnet.NewNetwork(vnet.WithCallTimeout(50 * time.Millisecond))
	var sawFrom string
	gated := NewSite(net.AddNode("gated"), SiteConfig{
		Admission: func(agent, from string) error {
			sawFrom = from
			if from == "rexec@blocked" {
				return errors.New("origin not welcome")
			}
			return nil
		},
	})
	gated.Register("svc", AgentFunc(func(*MeetContext, *folder.Briefcase) error { return nil }))

	friendly := NewSite(net.AddNode("friendly"), SiteConfig{})
	if err := friendly.Meet(context.Background(), "svc", folder.NewBriefcase(), At("gated")); err != nil {
		t.Fatal(err)
	}
	if sawFrom != "rexec@friendly" {
		t.Fatalf("admission saw from=%q", sawFrom)
	}

	blocked := NewSite(net.AddNode("blocked"), SiteConfig{})
	err := blocked.Meet(context.Background(), "svc", folder.NewBriefcase(), At("gated"))
	if err == nil || !strings.Contains(err.Error(), "not welcome") {
		t.Fatalf("err = %v", err)
	}
}

func TestSystemWaitQuiesces(t *testing.T) {
	sys := testSystem(t, 2)
	done := make(chan struct{})
	sys.SiteAt(1).Register("slowsink", AgentFunc(func(*MeetContext, *folder.Briefcase) error {
		time.Sleep(30 * time.Millisecond)
		close(done)
		return nil
	}))
	bc := folder.NewBriefcase()
	bc.PutString(folder.HostFolder, "site-1")
	bc.PutString(folder.ContactFolder, "slowsink")
	bc.PutString(DetachFolder, "1")
	if err := sys.SiteAt(0).Meet(context.Background(), AgRexec, bc); err != nil {
		t.Fatal(err)
	}
	sys.Wait() // must block until the detached delivery lands
	select {
	case <-done:
	default:
		t.Fatal("Wait returned before detached work finished")
	}
}

// waitBlocked reports whether some goroutine is blocked inside
// System.Wait's quiescence of a site.
func waitBlocked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sched.(*Scheduler).Quiesce(") && strings.Contains(g, "core.(*System).Wait(") {
			return true
		}
	}
	return false
}

// TestSystemWaitSeesWorkOnWaitedSite is the regression test for a Wait that
// quiesced each site once, in order: work on site-1 spawns detached work
// onto site-0 after Wait has already quiesced site-0, and Wait must still
// not return before that work has run.
func TestSystemWaitSeesWorkOnWaitedSite(t *testing.T) {
	sys := testSystem(t, 2)
	gate, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // runs before testSystem's Wait, even on failure
	var ran bool
	sys.SiteAt(1).Go(func() {
		<-gate
		sys.SiteAt(0).Go(func() {
			<-release
			ran = true
		})
	})
	waited := make(chan struct{})
	go func() {
		sys.Wait()
		close(waited)
	}()
	// Site-0 is idle, so a Wait blocked in a quiesce is blocked on site-1:
	// it has already passed site-0.
	for !waitBlocked() {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	select {
	case <-waited:
		t.Fatal("Wait returned while detached work on site-0 was still pending")
	case <-time.After(100 * time.Millisecond):
	}
	releaseOnce()
	<-waited
	if !ran {
		t.Fatal("Wait returned before the detached work ran")
	}
}
