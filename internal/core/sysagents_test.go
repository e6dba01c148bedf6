package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/folder"
)

func TestAgTaclRunsCode(t *testing.T) {
	sys := testSystem(t, 1)
	bc, err := RunScript(context.Background(), sys.SiteAt(0), `
		bc_push RESULT [expr {6 * 7}]
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := bc.GetString(folder.ResultFolder)
	if got != "42" {
		t.Fatalf("RESULT = %q", got)
	}
}

func TestAgTaclMissingCode(t *testing.T) {
	sys := testSystem(t, 1)
	err := sys.SiteAt(0).Meet(context.Background(), AgTacl, folder.NewBriefcase())
	if err == nil || !strings.Contains(err.Error(), "CODE") {
		t.Fatalf("err = %v", err)
	}
}

func TestAgTaclPopsCode(t *testing.T) {
	// The paper's ag_tcl pops the CODE folder: after execution the script
	// is consumed unless the agent re-ships itself.
	sys := testSystem(t, 1)
	bc, err := RunScript(context.Background(), sys.SiteAt(0), `bc_push X 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := bc.Folder(folder.CodeFolder)
	if f.Len() != 0 {
		t.Fatalf("CODE folder still has %d elements", f.Len())
	}
}

func TestAgTaclScriptError(t *testing.T) {
	sys := testSystem(t, 1)
	_, err := RunScript(context.Background(), sys.SiteAt(0), `error "agent gave up"`, nil)
	if err == nil || !strings.Contains(err.Error(), "agent gave up") {
		t.Fatalf("err = %v", err)
	}
}

func TestAgTaclStepBudgetEnforced(t *testing.T) {
	sys := NewSystem(1, SystemConfig{Site: SiteConfig{MaxSteps: 100}})
	_, err := RunScript(context.Background(), sys.SiteAt(0), `while {1} {set x 1}`, nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestRexecMovesExecution(t *testing.T) {
	sys := testSystem(t, 2)
	dst := sys.SiteAt(1)
	dst.Register("target", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("WHERE", string(mc.Site.ID()))
		return nil
	}))
	bc := folder.NewBriefcase()
	bc.PutString(folder.HostFolder, "site-1")
	bc.PutString(folder.ContactFolder, "target")
	if err := sys.SiteAt(0).Meet(context.Background(), AgRexec, bc); err != nil {
		t.Fatal(err)
	}
	where, _ := bc.GetString("WHERE")
	if where != "site-1" {
		t.Fatalf("WHERE = %q", where)
	}
	if bc.Has(folder.HostFolder) || bc.Has(folder.ContactFolder) {
		t.Fatal("rexec left HOST/CONTACT in the briefcase")
	}
}

func TestRexecMissingFolders(t *testing.T) {
	sys := testSystem(t, 1)
	err := sys.SiteAt(0).Meet(context.Background(), AgRexec, folder.NewBriefcase())
	if err == nil || !strings.Contains(err.Error(), "HOST") {
		t.Fatalf("err = %v", err)
	}
	bc := folder.NewBriefcase()
	bc.PutString(folder.HostFolder, "site-0")
	err = sys.SiteAt(0).Meet(context.Background(), AgRexec, bc)
	if err == nil || !strings.Contains(err.Error(), "CONTACT") {
		t.Fatalf("err = %v", err)
	}
}

func TestRexecDetach(t *testing.T) {
	sys := testSystem(t, 2)
	done := make(chan string, 1)
	sys.SiteAt(1).Register("sink", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		v, _ := bc.GetString("DATA")
		done <- v
		return nil
	}))
	bc := folder.NewBriefcase()
	bc.PutString(folder.HostFolder, "site-1")
	bc.PutString(folder.ContactFolder, "sink")
	bc.PutString(DetachFolder, "1")
	bc.PutString("DATA", "async-payload")
	if err := sys.SiteAt(0).Meet(context.Background(), AgRexec, bc); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != "async-payload" {
			t.Fatalf("DATA = %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("detached rexec never delivered")
	}
	sys.Wait()
}

func TestCourierDeliversFolder(t *testing.T) {
	sys := testSystem(t, 2)
	var received *folder.Briefcase
	got := make(chan struct{})
	sys.SiteAt(1).Register("mailbox", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		received = bc.Clone()
		bc.PutString(folder.ResultFolder, "delivered-ok")
		close(got)
		return nil
	}))
	bc := folder.NewBriefcase()
	bc.PutString(folder.HostFolder, "site-1")
	bc.PutString(folder.ContactFolder, "mailbox")
	bc.PutString(FolderNameFolder, "LETTER")
	bc.Put("LETTER", folder.OfStrings("dear", "agent"))
	bc.PutString("PRIVATE", "must not travel")
	if err := sys.SiteAt(0).Meet(context.Background(), AgCourier, bc); err != nil {
		t.Fatal(err)
	}
	<-got
	letter, err := received.Folder("LETTER")
	if err != nil || letter.Len() != 2 {
		t.Fatalf("LETTER = %v, %v", letter, err)
	}
	if received.Has("PRIVATE") {
		t.Fatal("courier leaked unrelated folders")
	}
	if origin, _ := received.GetString("ORIGIN"); origin != "site-0" {
		t.Fatalf("ORIGIN = %q", origin)
	}
	// The receiver's RESULT folder is folded back to the sender.
	if res, _ := bc.GetString(folder.ResultFolder); res != "delivered-ok" {
		t.Fatalf("RESULT = %q", res)
	}
}

func TestCourierMissingArgs(t *testing.T) {
	sys := testSystem(t, 1)
	bc := folder.NewBriefcase()
	bc.PutString(folder.HostFolder, "site-0")
	bc.PutString(folder.ContactFolder, "x")
	bc.PutString(FolderNameFolder, "NOPE")
	err := sys.SiteAt(0).Meet(context.Background(), AgCourier, bc)
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("err = %v", err)
	}
}

func TestCourierDetach(t *testing.T) {
	sys := testSystem(t, 2)
	got := make(chan struct{})
	sys.SiteAt(1).Register("mailbox", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		close(got)
		return nil
	}))
	bc := folder.NewBriefcase()
	bc.PutString(folder.HostFolder, "site-1")
	bc.PutString(folder.ContactFolder, "mailbox")
	bc.PutString(FolderNameFolder, "LETTER")
	bc.Put("LETTER", folder.OfStrings("hi"))
	bc.PutString(DetachFolder, "1")
	if err := sys.SiteAt(0).Meet(context.Background(), AgCourier, bc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("detached courier never delivered")
	}
	sys.Wait()
}

func TestDiffusionCoversRing(t *testing.T) {
	sys := testSystem(t, 8)
	sys.Ring()
	sys.Register("deliver", func(s *Site) Agent {
		return AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
			mc.Site.Cabinet().AppendString("DELIVERED", "yes")
			return nil
		})
	})
	bc := folder.NewBriefcase()
	bc.PutString(folder.ContactFolder, "deliver")
	if err := sys.SiteAt(0).Meet(context.Background(), AgDiffusion, bc); err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	for i := 0; i < sys.Len(); i++ {
		if sys.SiteAt(i).Cabinet().FolderLen("DELIVERED") != 1 {
			t.Fatalf("site %d delivered %d times, want exactly 1",
				i, sys.SiteAt(i).Cabinet().FolderLen("DELIVERED"))
		}
	}
	sitesFolder, _ := bc.Folder(folder.SitesFolder)
	if sitesFolder.Len() != 8 {
		t.Fatalf("SITES covers %d, want 8: %v", sitesFolder.Len(), sitesFolder.Strings())
	}
}

func TestDiffusionCoversGridExactlyOnce(t *testing.T) {
	sys := testSystem(t, 16)
	if err := sys.Grid(4, 4); err != nil {
		t.Fatal(err)
	}
	sys.Register("deliver", func(s *Site) Agent {
		return AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
			mc.Site.Cabinet().AppendString("DELIVERED", "yes")
			return nil
		})
	})
	bc := folder.NewBriefcase()
	bc.PutString(folder.ContactFolder, "deliver")
	if err := sys.SiteAt(5).Meet(context.Background(), AgDiffusion, bc); err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	for i := 0; i < sys.Len(); i++ {
		if n := sys.SiteAt(i).Cabinet().FolderLen("DELIVERED"); n != 1 {
			t.Fatalf("site %d delivered %d times", i, n)
		}
	}
}

func TestDiffusionTwoRunsIndependent(t *testing.T) {
	// Distinct DIFF_IDs must not share visit marks.
	sys := testSystem(t, 4)
	sys.Ring()
	sys.Register("deliver", func(s *Site) Agent {
		return AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
			mc.Site.Cabinet().AppendString("DELIVERED", "yes")
			return nil
		})
	})
	for run := 0; run < 2; run++ {
		bc := folder.NewBriefcase()
		bc.PutString(folder.ContactFolder, "deliver")
		if err := sys.SiteAt(0).Meet(context.Background(), AgDiffusion, bc); err != nil {
			t.Fatal(err)
		}
	}
	sys.Wait()
	for i := 0; i < sys.Len(); i++ {
		if n := sys.SiteAt(i).Cabinet().FolderLen("DELIVERED"); n != 2 {
			t.Fatalf("site %d delivered %d times, want 2", i, n)
		}
	}
}

func TestDiffusionSurvivesDeadNeighbour(t *testing.T) {
	sys := testSystem(t, 4)
	sys.Ring()
	sys.Register("deliver", func(s *Site) Agent {
		return AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
			mc.Site.Cabinet().AppendString("DELIVERED", "yes")
			return nil
		})
	})
	sys.Net.Crash("site-2")
	bc := folder.NewBriefcase()
	bc.PutString(folder.ContactFolder, "deliver")
	if err := sys.SiteAt(0).Meet(context.Background(), AgDiffusion, bc); err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	// Ring 0-1-2-3: site-2 is dead but 1 and 3 are reachable around it.
	for _, i := range []int{0, 1, 3} {
		if n := sys.SiteAt(i).Cabinet().FolderLen("DELIVERED"); n != 1 {
			t.Fatalf("site %d delivered %d times", i, n)
		}
	}
	errs, err := bc.Folder(folder.ErrorFolder)
	if err != nil || errs.Len() == 0 {
		t.Fatal("failures to reach the dead site were not recorded")
	}
}

func TestDiffusionNoContact(t *testing.T) {
	// A diffusion without CONTACT still covers sites (pure flooding).
	sys := testSystem(t, 4)
	sys.FullMesh()
	bc := folder.NewBriefcase()
	if err := sys.SiteAt(0).Meet(context.Background(), AgDiffusion, bc); err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	f, _ := bc.Folder(folder.SitesFolder)
	if f.Len() != 4 {
		t.Fatalf("covered %d sites, want 4", f.Len())
	}
}

func TestJumpMigration(t *testing.T) {
	sys := testSystem(t, 3)
	script := `
		# Roam site-0 -> site-1 -> site-2 accumulating a trail.
		bc_push TRAIL [host]
		if {[host] eq "site-0"} { jump site-1 }
		if {[host] eq "site-1"} { jump site-2 }
		bc_push RESULT done
	`
	bc, err := RunScript(context.Background(), sys.SiteAt(0), script, nil)
	if err != nil {
		t.Fatal(err)
	}
	trail, _ := bc.Folder("TRAIL")
	want := []string{"site-0", "site-1", "site-2"}
	got := trail.Strings()
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("TRAIL = %v", got)
	}
	if res, _ := bc.GetString(folder.ResultFolder); res != "done" {
		t.Fatalf("RESULT = %q", res)
	}
}

func TestJumpStateTravelsInBriefcaseNotVariables(t *testing.T) {
	sys := testSystem(t, 2)
	script := `
		if {[host] eq "site-0"} {
			set local_only precious
			bc_push SAVED kept
			jump site-1
		}
		# At site-1 the variable is gone (restart-style migration) but the
		# briefcase survived.
		if {[info exists local_only]} {
			bc_push RESULT variable-travelled
		} else {
			bc_push RESULT [bc_get SAVED 0]
		}
	`
	bc, err := RunScript(context.Background(), sys.SiteAt(0), script, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := bc.GetString(folder.ResultFolder); res != "kept" {
		t.Fatalf("RESULT = %q", res)
	}
}

func TestJumpToDeadSiteRecoverable(t *testing.T) {
	sys := testSystem(t, 2)
	sys.Net.Crash("site-1")
	script := `
		if {[catch {jump site-1} msg]} {
			bc_push RESULT "stayed: could not move"
		}
	`
	bc, err := RunScript(context.Background(), sys.SiteAt(0), script, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := bc.GetString(folder.ResultFolder)
	if !strings.Contains(res, "stayed") {
		t.Fatalf("RESULT = %q", res)
	}
	// The failed jump must not leave a duplicate CODE element behind.
	f, _ := bc.Folder(folder.CodeFolder)
	if f.Len() != 0 {
		t.Fatalf("CODE has %d elements after failed jump", f.Len())
	}
}

func TestSpawnClones(t *testing.T) {
	sys := testSystem(t, 3)
	script := `
		if {[host] eq "site-0"} {
			spawn site-1
			spawn site-2
			cab_append MARK origin
		} else {
			cab_append MARK clone
		}
	`
	if _, err := RunScript(context.Background(), sys.SiteAt(0), script, nil); err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	if n := sys.SiteAt(0).Cabinet().FolderLen("MARK"); n != 1 {
		t.Fatalf("origin marks = %d", n)
	}
	for i := 1; i < 3; i++ {
		if n := sys.SiteAt(i).Cabinet().FolderLen("MARK"); n != 1 {
			t.Fatalf("site %d marks = %d", i, n)
		}
	}
}

func TestTaclMeetBetweenAgents(t *testing.T) {
	sys := testSystem(t, 1)
	sys.SiteAt(0).Register("greeter", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		who, _ := bc.GetString("WHO")
		bc.PutString("GREETING", "hello "+who)
		return nil
	}))
	bc, err := RunScript(context.Background(), sys.SiteAt(0), `
		bc_push WHO world
		meet greeter
		bc_push RESULT [bc_get GREETING 0]
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := bc.GetString(folder.ResultFolder); res != "hello world" {
		t.Fatalf("RESULT = %q", res)
	}
}

func TestTaclCabinetCommands(t *testing.T) {
	sys := testSystem(t, 1)
	bc, err := RunScript(context.Background(), sys.SiteAt(0), `
		cab_append NOTES first
		cab_append NOTES second
		bc_push RESULT [cab_len NOTES]
		bc_push RESULT [cab_contains NOTES first]
		bc_push RESULT [cab_visit NOTES first]
		bc_push RESULT [cab_visit NOTES third]
		bc_push RESULT [cab_list NOTES]
		bc_push RESULT [cab_dequeue NOTES]
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := bc.Folder(folder.ResultFolder)
	got := f.Strings()
	want := []string{"2", "1", "0", "1", "first second third", "first"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RESULT[%d] = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestTaclBriefcaseCommands(t *testing.T) {
	sys := testSystem(t, 1)
	bc, err := RunScript(context.Background(), sys.SiteAt(0), `
		bc_push F a
		bc_push F b
		bc_push F c
		bc_push OUT [bc_len F]
		bc_push OUT [bc_pop F]
		bc_push OUT [bc_dequeue F]
		bc_push OUT [bc_peek F]
		bc_push OUT [bc_get F 0]
		bc_set F 0 B
		bc_push OUT [bc_get F 0]
		bc_push OUT [bc_has F]
		bc_del F
		bc_push OUT [bc_has F]
		bc_putlist L {x y z}
		bc_push OUT [bc_list L]
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := bc.Folder("OUT")
	got := f.Strings()
	want := []string{"3", "c", "a", "b", "b", "B", "1", "0", "x y z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OUT[%d] = %q, want %q (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestTaclRandDeterministic(t *testing.T) {
	mk := func() string {
		sys := NewSystem(1, SystemConfig{Seed: 7})
		bc, err := RunScript(context.Background(), sys.SiteAt(0), `
			bc_push R [rand 1000]
			bc_push R [rand 1000]
		`, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := bc.Folder("R")
		return strings.Join(f.Strings(), ",")
	}
	if mk() != mk() {
		t.Fatal("rand not deterministic for equal seeds")
	}
}

func TestTaclLogGoesToCabinet(t *testing.T) {
	sys := testSystem(t, 1)
	if _, err := RunScript(context.Background(), sys.SiteAt(0), `log "hello log"`, nil); err != nil {
		t.Fatal(err)
	}
	logf := sys.SiteAt(0).Cabinet().Snapshot("LOG")
	if logf.Len() != 1 || !strings.Contains(logf.Strings()[0], "hello log") {
		t.Fatalf("LOG = %v", logf.Strings())
	}
}

func TestRunScriptJumpReportsSuccess(t *testing.T) {
	sys := testSystem(t, 2)
	// A successful jump must report success to the injector; the rest of
	// the script runs at the destination only.
	bc, err := RunScript(context.Background(), sys.SiteAt(0), `
		if {[host] eq "site-0"} { jump site-1 }
		bc_push WHERE [host]
	`, nil)
	if err != nil {
		t.Fatalf("jump surfaced as error: %v", err)
	}
	f, ferr := bc.Folder("WHERE")
	if ferr != nil || f.Len() != 1 {
		t.Fatalf("WHERE = %v, %v", f, ferr)
	}
	if got := f.Strings()[0]; got != "site-1" {
		t.Fatalf("WHERE = %q", got)
	}
}
