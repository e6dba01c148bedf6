package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/folder"
	"repro/internal/sched"
	"repro/internal/store"
)

// orderSyncer is a fake CommitSyncer that checks the barrier ordering of
// async meets. At the start of each Sync it notes which meets had already
// made their last mutation; only when that Sync returns are those meets
// marked covered. A handle seen complete while its meet is not covered was
// acknowledged before any barrier that began after its last mutation.
type orderSyncer struct {
	returned []atomic.Bool // set by the agent after its last mutation
	covered  []atomic.Bool
	syncs    atomic.Int64
	delay    time.Duration
	err      error
}

func newOrderSyncer(n int, delay time.Duration, err error) *orderSyncer {
	return &orderSyncer{returned: make([]atomic.Bool, n), covered: make([]atomic.Bool, n), delay: delay, err: err}
}

func (o *orderSyncer) Sync() error {
	o.syncs.Add(1)
	var began []int
	for i := range o.returned {
		if o.returned[i].Load() {
			began = append(began, i)
		}
	}
	time.Sleep(o.delay) // widen the window in which an early ack would show
	for _, i := range began {
		o.covered[i].Store(true)
	}
	return o.err
}

var errAgentFailed = errors.New("agent failed")

// orderSite builds a durable site whose "op" agent appends its OP index to
// the cabinet (unless the briefcase carries READONLY), marks itself
// returned in syncer, and fails when the briefcase carries FAIL.
func orderSite(t *testing.T, syncer *orderSyncer) *Site {
	t.Helper()
	s := testSystem(t, 1).SiteAt(0)
	s.SetDurable(syncer)
	s.Register("op", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		id, err := bc.GetString("OP")
		if err != nil {
			return err
		}
		i, _ := strconv.Atoi(id)
		if !bc.Has("READONLY") {
			mc.Site.Cabinet().AppendString("LOG", id)
		}
		syncer.returned[i].Store(true)
		if bc.Has("FAIL") {
			return errAgentFailed
		}
		return nil
	}))
	return s
}

// startOps starts n async "op" meets; flags(i) names the marker folders
// (READONLY, FAIL) op i carries.
func startOps(t *testing.T, s *Site, n int, flags func(i int) []string) []*sched.Handle {
	t.Helper()
	hs := make([]*sched.Handle, n)
	for i := range hs {
		bc := folder.NewBriefcase()
		bc.PutString("OP", strconv.Itoa(i))
		for _, f := range flags(i) {
			bc.PutString(f, "1")
		}
		hs[i] = new(sched.Handle)
		if err := s.Meet(context.Background(), "op", bc, Async(hs[i])); err != nil {
			t.Fatal(err)
		}
	}
	return hs
}

// TestAsyncCommitAcksAfterLaterSync: no async handle completes before a
// Sync that began after its meet's last mutation, for writing and
// read-only meets alike, and the shared commit batches.
func TestAsyncCommitAcksAfterLaterSync(t *testing.T) {
	const n = 64
	syncer := newOrderSyncer(n, 2*time.Millisecond, nil)
	s := orderSite(t, syncer)
	hs := startOps(t, s, n, func(i int) []string {
		if i%4 == 0 {
			return []string{"READONLY"}
		}
		return nil
	})
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-h.Done()
			if !syncer.covered[i].Load() {
				t.Errorf("op %d acknowledged before a barrier that began after it returned", i)
			}
			if err := h.Err(); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	s.Wait()
	if got := s.Cabinet().FolderLen("LOG"); got != n-n/4 {
		t.Fatalf("LOG holds %d elements, want %d", got, n-n/4)
	}
	if got := syncer.syncs.Load(); got >= n {
		t.Fatalf("%d async meets took %d barriers; the shared commit should batch them", n, got)
	}
}

// TestAsyncCommitFailure: a failing barrier fails every handle of its batch
// with the wrapped barrier error, except that an agent's own error wins.
func TestAsyncCommitFailure(t *testing.T) {
	const n = 32
	errDisk := errors.New("disk on fire")
	s := orderSite(t, newOrderSyncer(n, 0, errDisk))
	hs := startOps(t, s, n, func(i int) []string {
		switch i % 3 {
		case 0:
			return []string{"FAIL"}
		case 1:
			return []string{"READONLY"}
		}
		return nil
	})
	for i, h := range hs {
		err := h.Wait(context.Background())
		if i%3 == 0 {
			if !errors.Is(err, errAgentFailed) || errors.Is(err, errDisk) {
				t.Errorf("op %d: got %v, want the agent's own error", i, err)
			}
			continue
		}
		if !errors.Is(err, errDisk) || !strings.Contains(err.Error(), "core: durable commit at site-0") {
			t.Errorf("op %d: got %v, want the wrapped barrier error", i, err)
		}
	}
}

// copyDir copies the regular files of src into a fresh directory: the
// on-disk image a crash at this instant would leave (the WAL buffers
// unflushed records in memory, so the files hold only what a Sync wrote).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestAsyncDurableMeetsRecoverAndBatch runs concurrent async appends on a
// real WAL: every acknowledged append must be in the directory's recovered
// image — taken without closing the WAL, which would flush — and the shared
// commit must cover them with fewer fdatasyncs than meets.
func TestAsyncDurableMeetsRecoverAndBatch(t *testing.T) {
	const n, boxes = 256, 8
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	dir := t.TempDir()
	wal, err := store.Open(dir, s.Cabinet(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	s.SetDurable(wal)
	s.Register("append", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		box, err := bc.GetString("BOX")
		if err != nil {
			return err
		}
		elem, err := bc.GetString("ELEM")
		if err != nil {
			return err
		}
		mc.Site.Cabinet().AppendString(box, elem)
		return nil
	}))
	hs := make([]*sched.Handle, n)
	for i := range hs {
		bc := folder.NewBriefcase()
		bc.PutString("BOX", fmt.Sprintf("BOX:%d", i%boxes))
		bc.PutString("ELEM", fmt.Sprintf("e%d", i))
		hs[i] = new(sched.Handle)
		if err := s.Meet(context.Background(), "append", bc, Async(hs[i])); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hs {
		if err := h.Wait(context.Background()); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	crash := copyDir(t, dir)

	cab := folder.NewCabinet()
	rec, err := store.Open(crash, cab, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for i := 0; i < n; i++ {
		if !cab.Contains(fmt.Sprintf("BOX:%d", i%boxes), []byte(fmt.Sprintf("e%d", i))) {
			t.Fatalf("acknowledged append e%d lost in recovery", i)
		}
	}
	st := wal.Stats()
	if st.Syncs >= n {
		t.Fatalf("%d async meets issued %d fdatasyncs; the shared commit should batch them", n, st.Syncs)
	}
	t.Logf("%d async meets: %d records in %d syncs, batches %s", n, st.Records, st.Syncs, st.FormatBatchHist())
}

// TestAsyncCommitLoopExitsWhenIdle: the commit loop is site background
// work that exists only while finished meets await their barrier. Site.Wait
// covers it — every handle is complete when Wait returns — and no commit
// loop remains afterwards; once the scheduler's workers retire the site
// holds no more goroutines than before the meets, so an idle site costs no
// kernel goroutines.
func TestAsyncCommitLoopExitsWhenIdle(t *testing.T) {
	const n = 64
	syncer := newOrderSyncer(n, 0, nil)
	s := orderSite(t, syncer)
	s.Wait()
	before := runtime.NumGoroutine()
	hs := startOps(t, s, n, func(int) []string { return nil })
	s.Wait()
	for i, h := range hs {
		select {
		case <-h.Done():
			if err := h.Err(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		default:
			t.Fatalf("op %d still pending after Site.Wait", i)
		}
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Site).commitLoop") {
		t.Fatalf("a commit loop is still running after Site.Wait:\n%s", stacks)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d after the site went idle", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
