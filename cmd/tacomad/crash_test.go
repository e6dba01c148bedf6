package main

import (
	"context"
	"flag"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/rearguard"
	"repro/internal/vnet"
)

// TestMain lets the test binary double as the tacomad executable: the
// kill-9 recovery test re-execs itself with TACOMAD_CHILD=1 to run real
// daemon processes it can SIGKILL, without needing `go build` inside the
// test.
func TestMain(m *testing.M) {
	if os.Getenv("TACOMAD_CHILD") == "1" {
		flag.CommandLine = flag.NewFlagSet("tacomad", flag.ExitOnError)
		os.Args = append([]string{"tacomad"},
			strings.Split(os.Getenv("TACOMAD_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnTacomad re-execs the test binary as a tacomad daemon.
func spawnTacomad(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"TACOMAD_CHILD=1",
		"TACOMAD_ARGS="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		data, _ := io.ReadAll(stderr)
		if len(data) > 0 {
			t.Logf("tacomad child:\n%s", data)
		}
	}()
	return cmd
}

// freePort reserves an ephemeral TCP port and releases it for the child.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// remoteScript runs a TacL script at the daemon and returns the OUT folder.
func remoteScript(ctx context.Context, from *core.Site, dest vnet.SiteID, src string) (*folder.Folder, error) {
	bc := folder.NewBriefcase()
	bc.Ensure(folder.CodeFolder).PushString(src)
	if err := from.Meet(ctx, core.AgTacl, bc, core.At(dest)); err != nil {
		return nil, err
	}
	out, err := bc.Folder("OUT")
	if err != nil {
		return folder.New(), nil // script produced no output
	}
	return out, nil
}

// TestKill9RecoversCabinetAndGuards is the end-to-end durability
// acceptance test: a WAL-backed tacomad is SIGKILLed mid-computation and
// restarted, and the restarted daemon must present both its cabinet
// contents and its armed rear guard — proven functionally, by the
// recovered guard relaunching the computation when the site it watches
// dies.
//
// Topology: the parent process runs origin site O (with a rear-guard
// manager) and site D, whose rg_agent stub blocks forever — the itinerary
// C → D therefore stalls at D while C holds an armed guard watching D.
func TestKill9RecoversCabinetAndGuards(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	walDir := t.TempDir()

	epO, err := vnet.NewTCPEndpoint("O", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epO.Close()
	epD, err := vnet.NewTCPEndpoint("D", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epD.Close()

	siteO := core.NewSite(epO, core.SiteConfig{})
	mgrO := rearguard.Install(siteO)
	siteD := core.NewSite(epD, core.SiteConfig{})
	reached := make(chan struct{})
	blocker := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(blocker) })
	defer unblock()
	siteD.Register(rearguard.AgHop, core.AgentFunc(
		func(mc *core.MeetContext, bc *folder.Briefcase) error {
			select {
			case <-reached:
			default:
				close(reached)
			}
			<-blocker
			return nil
		}))

	addrC := freePort(t)
	childArgs := []string{
		"-site", "C", "-listen", addrC, "-wal", walDir,
		"-peer", "O=" + epO.Addr(), "-peer", "D=" + epD.Addr(),
	}
	epO.AddPeer("C", addrC)
	epD.AddPeer("C", addrC)
	epO.AddPeer("D", epD.Addr())
	epD.AddPeer("O", epO.Addr())

	child := spawnTacomad(t, childArgs...)
	killed := false
	defer func() {
		if !killed {
			child.Process.Kill()
			child.Wait()
		}
	}()
	waitUp(t, ctx, siteO, "C")

	// Durable cabinet mutation via an ordinary roaming script: the remote
	// meet only returns once C's WAL has committed it.
	if _, err := remoteScript(ctx, siteO, "C", `cab_append CRASHTEST hello-1`); err != nil {
		t.Fatal(err)
	}

	// Start the guarded computation C -> D. It stalls inside D's blocking
	// rg_agent, which pins an armed guard (watching D) at C.
	ch, err := mgrO.Launch(ctx, rearguard.Config{
		ID: "k9", Task: "no_such_task", Itinerary: []vnet.SiteID{"C", "D"}, Guards: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(15 * time.Second):
		t.Fatal("computation never reached site D")
	}
	// C releases the origin's guard as it advances; once that lands, the
	// only armed guard in the system is C's — so the recovery below can
	// only be explained by C's guard surviving the kill.
	waitCond(t, "origin guard released", func() bool { return mgrO.ActiveGuards() == 0 })

	// SIGKILL: no signal handler, no shutdown flush, no WAL close.
	killed = true
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	// Restart over the same WAL directory.
	child2 := spawnTacomad(t, childArgs...)
	defer func() {
		child2.Process.Kill()
		child2.Wait()
	}()
	waitUp(t, ctx, siteO, "C")

	// Cabinet contents recovered (polled: the ping can win a race with the
	// tail of WAL replay).
	waitCond(t, "cabinet recovered", func() bool {
		out, err := remoteScript(ctx, siteO, "C",
			`bc_push OUT [cab_contains CRASHTEST hello-1]`)
		if err != nil || out.Len() != 1 {
			return false
		}
		s, _ := out.StringAt(0)
		return s == "1"
	})

	// Armed guard recovered: kill the watched site and the re-armed guard
	// at C must relaunch — D is dead and the itinerary exhausted, so the
	// checkpoint comes home flagged, waking the origin's waiter. The stub
	// must unblock first: Close drains in-flight handler streams.
	unblock()
	epD.Close()
	res := rearguard.Wait(ch, 30*time.Second)
	if !res.Completed {
		t.Fatal("restarted site never relaunched the computation: its rear guard did not survive the crash")
	}
	if len(res.Skipped) == 0 || res.Skipped[len(res.Skipped)-1] != "D" {
		t.Fatalf("Skipped = %v, want dead site D flagged", res.Skipped)
	}
	errs, err := res.Briefcase.Folder(folder.ErrorFolder)
	if err != nil || errs.Len() == 0 {
		t.Fatalf("expected the all-dead flag in ERROR, got err=%v", err)
	}
}

// waitUp polls until the daemon answers pings.
func waitUp(t *testing.T, ctx context.Context, from *core.Site, dest vnet.SiteID) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		pctx, pcancel := context.WithTimeout(ctx, 250*time.Millisecond)
		err := from.Ping(pctx, dest, 0)
		pcancel()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("site %s never came up: %v", dest, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitCond polls cond with a generous deadline.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
