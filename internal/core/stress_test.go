package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/folder"
)

// TestShardedRegistryStress hammers the lock-striped agent registry from
// many goroutines at once — Register, Unregister, Lookup, AgentNames, and
// live meets against agents that stay registered — and is meant to run
// under -race.
func TestShardedRegistryStress(t *testing.T) {
	sys := NewSystem(1, SystemConfig{Seed: 3})
	s := sys.SiteAt(0)

	const stable = 16
	for i := 0; i < stable; i++ {
		s.Register(fmt.Sprintf("stable-%d", i), AgentFunc(
			func(mc *MeetContext, bc *folder.Briefcase) error {
				bc.PutString(folder.ResultFolder, string(mc.Site.ID()))
				return nil
			}))
	}

	iters := 2000
	if testing.Short() {
		iters = 300
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bc := folder.NewBriefcase()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					name := fmt.Sprintf("churn-%d-%d", w, i)
					s.Register(name, AgentFunc(func(*MeetContext, *folder.Briefcase) error { return nil }))
					if _, ok := s.Lookup(name); !ok {
						t.Error("registered agent not found")
						return
					}
					s.Unregister(name)
				case 1:
					if err := s.Meet(context.Background(), fmt.Sprintf("stable-%d", i%stable), bc); err != nil {
						t.Errorf("meet: %v", err)
						return
					}
				case 2:
					if _, ok := s.Lookup(fmt.Sprintf("stable-%d", (i*7)%stable)); !ok {
						t.Error("stable agent missing")
						return
					}
				case 3:
					names := s.AgentNames()
					if len(names) < stable {
						t.Errorf("listing lost agents: %d", len(names))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// All churned agents are gone, all stable agents remain.
	for _, n := range s.AgentNames() {
		if strings.HasPrefix(n, "churn-") {
			t.Fatalf("leaked churn agent %q", n)
		}
	}
	for i := 0; i < stable; i++ {
		if _, ok := s.Lookup(fmt.Sprintf("stable-%d", i)); !ok {
			t.Fatalf("stable-%d disappeared", i)
		}
	}
}

// TestShardedCabinetStress drives the lock-striped cabinet concurrently:
// appends, atomic test-and-set, snapshots, dequeues, membership checks, and
// whole-cabinet listings, across folders that share and do not share
// stripes. Run under -race.
func TestShardedCabinetStress(t *testing.T) {
	c := folder.NewCabinet()
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			private := fmt.Sprintf("worker-%d", w)
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					c.AppendString(private, fmt.Sprintf("e%d", i))
				case 1:
					if !c.TestAndAppendString("SHARED", fmt.Sprintf("%d-%d", w, i)) {
						t.Error("fresh element reported as seen")
						return
					}
				case 2:
					snap := c.Snapshot(private)
					snap.PushString("local-mutation") // must not corrupt cabinet
				case 3:
					if _, err := c.Dequeue(private); err != nil &&
						!errors.Is(err, folder.ErrEmpty) && !errors.Is(err, folder.ErrNoFolder) {
						t.Errorf("dequeue: %v", err)
						return
					}
				case 4:
					c.ContainsString("SHARED", fmt.Sprintf("%d-%d", w, i-5))
					_ = c.Names()
					_ = c.FolderLen("SHARED")
				}
			}
		}(w)
	}
	wg.Wait()

	inserted := 0
	for i := 0; i < iters; i++ {
		if i%5 == 1 {
			inserted++
		}
	}
	if got := c.FolderLen("SHARED"); got != 8*inserted {
		t.Fatalf("SHARED has %d elements, want %d", got, 8*inserted)
	}
}

// TestFrozenFolderRefusedInScript: a frozen briefcase folder (the guard
// freezes SIG after signing) must surface as a script error, never a panic,
// when TacL tries to mutate it — even at an unguarded site.
func TestFrozenFolderRefusedInScript(t *testing.T) {
	sys := NewSystem(1, SystemConfig{Seed: 5})
	bc := folder.NewBriefcase()
	bc.PutString("SIG", "alice|CODE|deadbeef")
	if f := bc.Lookup("SIG"); f != nil {
		f.Freeze()
	}
	for _, script := range []string{
		`bc_push SIG forged`,
		`bc_pop SIG`,
		`bc_set SIG 0 forged`,
		`bc_dequeue SIG`,
	} {
		cp := bc.Clone()
		// Clone yields mutable folders; re-freeze SIG as the guard would
		// after a hop's ReplaceAll... the point under test is the builtin's
		// refusal path, so freeze explicitly.
		cp.Lookup("SIG").Freeze()
		_, err := RunScript(context.Background(), sys.SiteAt(0), script, cp)
		if err == nil || !errors.Is(err, folder.ErrFrozen) {
			t.Errorf("%s: err = %v, want ErrFrozen", script, err)
		}
	}
	// Reading a frozen folder is fine.
	out, err := RunScript(context.Background(), sys.SiteAt(0), `bc_push RESULT [bc_get SIG 0]`, bc.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := out.GetString(folder.ResultFolder); s != "alice|CODE|deadbeef" {
		t.Fatalf("read through frozen folder: %q", s)
	}
}
