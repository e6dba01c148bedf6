package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/folder"
	"repro/internal/sched"
)

func TestMeetUnifiedEntryPoint(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	b.Register("echo", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("RAN_AT", string(mc.Site.ID()))
		return nil
	}))
	a.Register("echo", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("RAN_AT", string(mc.Site.ID()))
		return nil
	}))

	// Plain context: a client entering the agent system.
	bc := folder.NewBriefcase()
	if err := a.Meet(context.Background(), "echo", bc); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("RAN_AT"); at != "site-0" {
		t.Fatalf("ran at %q", at)
	}

	// Nil context works too.
	if err := a.Meet(nil, "echo", folder.NewBriefcase()); err != nil {
		t.Fatal(err)
	}

	// At(dest): the meet runs at another site.
	bc = folder.NewBriefcase()
	if err := a.Meet(context.Background(), "echo", bc, At(b.ID())); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("RAN_AT"); at != "site-1" {
		t.Fatalf("At(site-1) ran at %q", at)
	}

	// At(self) short-circuits locally.
	bc = folder.NewBriefcase()
	if err := a.Meet(context.Background(), "echo", bc, At(a.ID())); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("RAN_AT"); at != "site-0" {
		t.Fatalf("At(self) ran at %q", at)
	}
}

func TestMeetContextIsContext(t *testing.T) {
	// *MeetContext satisfies context.Context, which is what lets every
	// pre-redesign nested-meet call site compile unchanged against the
	// unified signature — and nesting depth must still be tracked.
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	var depths []int
	s.Register("nest", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		depths = append(depths, mc.Depth)
		if mc.Depth < 3 {
			return s.Meet(mc, "nest", bc)
		}
		return nil
	}))
	if err := s.Meet(context.Background(), "nest", nil); err != nil {
		t.Fatal(err)
	}
	for i, d := range depths {
		if d != i+1 {
			t.Fatalf("depths = %v", depths)
		}
	}

	// Cancellation flows through the MeetContext's context methods.
	ctx, cancel := context.WithCancel(context.Background())
	mc := &MeetContext{Ctx: ctx}
	if mc.Err() != nil {
		t.Fatal("fresh MeetContext already cancelled")
	}
	cancel()
	if !errors.Is(mc.Err(), context.Canceled) {
		t.Fatalf("Err = %v", mc.Err())
	}
	select {
	case <-mc.Done():
	default:
		t.Fatal("Done channel not closed after cancel")
	}
	// A nil *MeetContext behaves as Background, so wrappers taking a
	// context.Context never see a panic from a typed nil.
	var nilMC *MeetContext
	if nilMC.Err() != nil || nilMC.Value("k") != nil {
		t.Fatal("nil MeetContext does not behave like Background")
	}
	if _, ok := nilMC.Deadline(); ok {
		t.Fatal("nil MeetContext reports a deadline")
	}
}

func TestMeetAsync(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	release := make(chan struct{})
	s.Register("slow", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		<-release
		bc.PutString("DONE", "1")
		return nil
	}))
	var h sched.Handle
	bc := folder.NewBriefcase()
	if err := s.Meet(context.Background(), "slow", bc, Async(&h)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
		t.Fatal("handle completed before the agent ran")
	default:
	}
	close(release)
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, _ := bc.GetString("DONE"); v != "1" {
		t.Fatal("async meet did not run")
	}

	// Errors propagate through the handle.
	var h2 sched.Handle
	if err := s.Meet(context.Background(), "ag_missing", nil, Async(&h2)); err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(context.Background()); !errors.Is(err, ErrNoAgent) {
		t.Fatalf("async miss error = %v", err)
	}
	s.Wait() // async meets are tracked site work
}

func TestMeetDeadline(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	// Locally the deadline reaches the agent's own context.
	a.Register("checker", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		if _, ok := mc.Ctx.Deadline(); !ok {
			t.Error("local agent saw no deadline")
		}
		return nil
	}))
	if err := a.Meet(context.Background(), "checker", nil,
		Deadline(time.Now().Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	b.Register("checker", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		return nil
	}))
	// Remotely it bounds the exchange; a live deadline lets the meet through.
	if err := a.Meet(context.Background(), "checker", nil, At(b.ID()),
		Deadline(time.Now().Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	// An already-expired deadline fails the meet without running the agent.
	err := a.Meet(context.Background(), "checker", nil, At(b.ID()),
		Deadline(time.Now().Add(-time.Second)))
	if err == nil {
		t.Fatal("expired deadline met anyway")
	}
}

// TestMeetOptionsFromAgent covers the paths Meet takes for an executing
// agent's *MeetContext: At(self) nests (depth carries over), At(other)
// crosses the wire, an Async remote meet completes through its handle, and
// a typed-nil *MeetContext is a fresh client context.
func TestMeetOptionsFromAgent(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	for _, s := range []*Site{a, b} {
		s.Register("where", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
			bc.PutString("AT", string(mc.Site.ID()))
			bc.PutString("DEPTH", string(rune('0'+mc.Depth)))
			return nil
		}))
	}
	var h sched.Handle
	a.Register("caller", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		self := folder.NewBriefcase()
		if err := a.Meet(mc, "where", self, At(a.ID())); err != nil {
			return err
		}
		if at, _ := self.GetString("AT"); at != "site-0" {
			t.Errorf("At(self) ran at %q", at)
		}
		if d, _ := self.GetString("DEPTH"); d != "2" {
			t.Errorf("At(self) from an agent ran at depth %s, want 2", d)
		}
		remote := folder.NewBriefcase()
		if err := a.Meet(mc, "where", remote, At(b.ID())); err != nil {
			return err
		}
		if at, _ := remote.GetString("AT"); at != "site-1" {
			t.Errorf("At(site-1) ran at %q", at)
		}
		return a.Meet(mc, "where", bc, At(b.ID()), Async(&h))
	}))
	bc := folder.NewBriefcase()
	if err := a.Meet(context.Background(), "caller", bc); err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("AT"); at != "site-1" {
		t.Fatalf("async At(site-1) ran at %q", at)
	}

	var nilMC *MeetContext
	fresh := folder.NewBriefcase()
	if err := a.Meet(nilMC, "where", fresh); err != nil {
		t.Fatal(err)
	}
	if d, _ := fresh.GetString("DEPTH"); d != "1" {
		t.Fatalf("typed-nil MeetContext ran at depth %s, want 1", d)
	}
	a.Wait()
}
