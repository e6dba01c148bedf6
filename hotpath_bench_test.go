// Benchmarks for the meet hot path (see DESIGN.md §Hot path). Unlike
// bench_test.go, which regenerates the paper experiments, these measure the
// kernel primitives a production deployment exercises per meet: dispatch,
// briefcase/folder copying, cabinet access, codec round-trips, and the TCP
// transport. cmd/tacobench drives the same paths from a CLI and emits
// BENCH_meet.json; scripts/benchdiff.go gates CI on these numbers.
package tacoma

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/vnet"
)

// hotSite builds a single-site system with a "visit" agent that does the
// work a realistic service meet does: read a scalar argument, record the
// visit in the site cabinet, and hand back a snapshot of a site-local
// folder through the briefcase.
func hotSite(b *testing.B, dataElems, elemSize int) *core.Site {
	b.Helper()
	sys := core.NewSystem(1, core.SystemConfig{Seed: 7})
	s := sys.SiteAt(0)
	payload := bytes.Repeat([]byte("d"), elemSize)
	for i := 0; i < dataElems; i++ {
		s.Cabinet().Append("DATA", payload)
	}
	s.Register("visit", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		id, err := bc.GetString("REQ")
		if err != nil {
			return err
		}
		mc.Site.Cabinet().TestAndAppendString("SEEN", id)
		bc.Put(folder.ResultFolder, mc.Site.Cabinet().Snapshot("DATA"))
		return nil
	}))
	return s
}

func BenchmarkMeetHotPath(b *testing.B) {
	b.Run("localMeet", func(b *testing.B) {
		// Pure dispatch cost: registry lookup, guard probe, context build.
		sys := core.NewSystem(1, core.SystemConfig{Seed: 7})
		sys.SiteAt(0).Register("noop", core.AgentFunc(
			func(*core.MeetContext, *folder.Briefcase) error { return nil }))
		bc := folder.NewBriefcase()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.SiteAt(0).Meet(context.Background(), "noop", bc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("localMeetCabinet/256x64", func(b *testing.B) {
		// The realistic service meet: argument read + cabinet visit record +
		// snapshot of a 256-element site folder returned via the briefcase.
		s := hotSite(b, 256, 64)
		bc := folder.NewBriefcase()
		bc.PutString("REQ", "client-0")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Meet(context.Background(), "visit", bc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("localMeetParallel", func(b *testing.B) {
		// Concurrent meets against many distinct agents: measures registry
		// and cabinet lock contention (the sharding target).
		sys := core.NewSystem(1, core.SystemConfig{Seed: 7})
		s := sys.SiteAt(0)
		const agents = 64
		for i := 0; i < agents; i++ {
			s.Register(fmt.Sprintf("svc-%d", i), core.AgentFunc(
				func(mc *core.MeetContext, bc *folder.Briefcase) error {
					mc.Site.Cabinet().TestAndAppendString("SEEN", mc.Agent)
					return nil
				}))
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			bc := folder.NewBriefcase()
			for pb.Next() {
				name := fmt.Sprintf("svc-%d", i%agents)
				i++
				if err := s.Meet(context.Background(), name, bc); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("folderClone/64x1KiB", func(b *testing.B) {
		payload := bytes.Repeat([]byte("c"), 1024)
		elems := make([][]byte, 64)
		for i := range elems {
			elems[i] = payload
		}
		f := folder.Of(elems...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if g := f.Clone(); g.Len() != 64 {
				b.Fatal("bad clone")
			}
		}
	})
	b.Run("cabinetSnapshot/256x64", func(b *testing.B) {
		s := hotSite(b, 256, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if f := s.Cabinet().Snapshot("DATA"); f.Len() != 256 {
				b.Fatal("bad snapshot")
			}
		}
	})
	b.Run("codecRoundtrip/8x512", func(b *testing.B) {
		bc := folder.NewBriefcase()
		payload := bytes.Repeat([]byte("p"), 512)
		for i := 0; i < 8; i++ {
			bc.Put(fmt.Sprintf("F%d", i), folder.Of(payload, payload))
		}
		b.ReportAllocs()
		b.SetBytes(int64(folder.EncodedSize(bc)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc := folder.EncodeBriefcase(bc)
			if _, err := folder.DecodeBriefcase(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remoteMeetSim", func(b *testing.B) {
		sys := core.NewSystem(2, core.SystemConfig{Seed: 7})
		sys.SiteAt(1).Register("noop", core.AgentFunc(
			func(*core.MeetContext, *folder.Briefcase) error { return nil }))
		bc := folder.NewBriefcase()
		bc.PutString("PAYLOAD", "x")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.SiteAt(0).Meet(context.Background(), "noop", bc, core.At("site-1")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remoteMeetTCP", func(b *testing.B) {
		benchRemoteMeetTCP(b)
	})
}

// BenchmarkScriptedMeet measures a full scripted-agent activation of
// core.ScriptWorkloadSrc (the paper's actual workload shape — a roaming
// script doing folder work at a site): CODE push, ag_tacl dispatch, script
// execution. Before the compile-once engine this re-parsed the script,
// every control-flow body, and every expr string on each activation and
// each loop iteration.
func BenchmarkScriptedMeet(b *testing.B) {
	sys := core.NewSystem(1, core.SystemConfig{Seed: 7})
	s := sys.SiteAt(0)
	bc := folder.NewBriefcase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Ensure(folder.CodeFolder).PushString(core.ScriptWorkloadSrc)
		if err := s.Meet(context.Background(), core.AgTacl, bc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRemoteMeetTCP measures a remote meet over real sockets: dominated by
// connection setup until the transport reuses connections.
func benchRemoteMeetTCP(b *testing.B) {
	epA, err := vnet.NewTCPEndpoint("site-a", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer epA.Close()
	epB, err := vnet.NewTCPEndpoint("site-b", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer epB.Close()
	epA.AddPeer("site-b", epB.Addr())
	epB.AddPeer("site-a", epA.Addr())
	siteA := core.NewSite(epA, core.SiteConfig{})
	siteB := core.NewSite(epB, core.SiteConfig{})
	siteB.Register("noop", core.AgentFunc(
		func(*core.MeetContext, *folder.Briefcase) error { return nil }))
	bc := folder.NewBriefcase()
	bc.PutString("PAYLOAD", "x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := siteA.Meet(context.Background(), "noop", bc, core.At("site-b")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableMeet quantifies the durability tax and the group-commit
// win (see DESIGN.md § Durable cabinets). A meet appends one element to a
// worker-private cabinet folder and marks the visit; the sub-benchmarks run
// it with no WAL (the in-memory ceiling), with the group-committed WAL (one
// shared fdatasync per batch of concurrent meets), and with the naive
// fsync-per-mutation WAL the group commit is measured against. Runs with
// exactly 8 concurrent workers: group commit is a concurrency phenomenon.
func BenchmarkDurableMeet(b *testing.B) {
	for _, mode := range []string{"off", "group", "naive"} {
		b.Run("wal="+mode, func(b *testing.B) {
			sys := core.NewSystem(1, core.SystemConfig{Seed: 7})
			s := sys.SiteAt(0)
			if mode != "off" {
				wal, err := store.Open(b.TempDir(), s.Cabinet(), store.Options{
					SyncEveryRecord: mode == "naive",
				})
				if err != nil {
					b.Fatal(err)
				}
				defer wal.Close()
				s.SetDurable(wal)
			}
			s.Register("deliver", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
				id, err := bc.GetString("REQ")
				if err != nil {
					return err
				}
				elem, err := bc.Folder("PAYLOAD")
				if err != nil {
					return err
				}
				mc.Site.Cabinet().Append("MBOX:"+id, elem.RawAt(0))
				return nil
			}))
			// Exactly 8 workers whatever GOMAXPROCS is (SetParallelism is a
			// multiplier, which would vary the batching factor with core
			// count); matches the tacobench durable lane's pinned
			// concurrency so the two measurements stay comparable.
			const workers = 8
			b.ReportAllocs()
			b.ResetTimer()
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					bc := folder.NewBriefcase()
					bc.PutString("REQ", fmt.Sprintf("w%d", w))
					p := folder.New()
					p.Push(bytes.Repeat([]byte("p"), 64))
					bc.Put("PAYLOAD", p)
					for remaining.Add(-1) >= 0 {
						if err := s.Meet(context.Background(), "deliver", bc); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkAsyncDurableMeet measures the durable courier shape: one client
// keeps 16 async meets in flight on a WAL cabinet, each appending a 64-byte
// element to one of 64 mailboxes and draining the oldest once the mailbox
// holds 64. The WAL skips fdatasync (NoSync), so the numbers show the
// kernel's commit path rather than the disk; syncs/op is the barriers
// issued per meet, the inverse of how many async meets one barrier covers.
func BenchmarkAsyncDurableMeet(b *testing.B) {
	const outstanding, boxes, depth = 16, 64, 64
	sys := core.NewSystem(1, core.SystemConfig{Seed: 7})
	s := sys.SiteAt(0)
	wal, err := store.Open(b.TempDir(), s.Cabinet(), store.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	s.SetDurable(wal)
	s.Register("deliver", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		box, err := bc.GetString("BOX")
		if err != nil {
			return err
		}
		elem, err := bc.Folder("PAYLOAD")
		if err != nil {
			return err
		}
		cab := mc.Site.Cabinet()
		cab.Append(box, elem.RawAt(0))
		if cab.FolderLen(box) > depth {
			_, err = cab.Dequeue(box)
		}
		return err
	}))
	var slots [outstanding]struct {
		h  *sched.Handle
		bc *folder.Briefcase
	}
	for i := range slots {
		slots[i].bc = folder.NewBriefcase()
		p := folder.New()
		p.Push(bytes.Repeat([]byte("p"), 64))
		slots[i].bc.Put("PAYLOAD", p)
	}
	ctx := context.Background()
	syncs0 := wal.Stats().Syncs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl := &slots[i%outstanding]
		if sl.h != nil {
			if err := sl.h.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		sl.h = new(sched.Handle)
		sl.bc.PutString("BOX", "MBOX:"+strconv.Itoa(i%boxes))
		if err := s.Meet(ctx, "deliver", sl.bc, core.Async(sl.h)); err != nil {
			b.Fatal(err)
		}
	}
	for i := range slots {
		if h := slots[i].h; h != nil {
			if err := h.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wal.Stats().Syncs-syncs0)/float64(b.N), "syncs/op")
	s.Wait()
}
