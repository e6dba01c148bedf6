// Benchmarks regenerating the paper experiments, one per claim (see the
// experiment index in DESIGN.md). The heavy lifting lives in
// internal/experiments; these benches report the headline numbers as
// custom metrics so `go test -bench=. -benchmem` reproduces the recorded
// results.
package tacoma

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// --- E1: bandwidth, roaming filter agent vs client-server pull (§1) ---

func BenchmarkE1BandwidthAgentVsClientServer(b *testing.B) {
	for _, rb := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("recordBytes=%d", rb), func(b *testing.B) {
			var row experiments.E1Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.E1Bandwidth(context.Background(), 8, 50, rb, 0.05)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.AgentBytes), "agentB")
			b.ReportMetric(float64(row.ClientBytes), "clientB")
			b.ReportMetric(row.Ratio(), "client/agent")
		})
	}
}

// --- E2: flooding termination (§2) ---

func BenchmarkE2FloodingTermination(b *testing.B) {
	cases := []struct {
		name    string
		variant string
		ttl     int
	}{
		{"naive-ttl6", "naive", 6},
		{"briefcase", "briefcase", 0},
		{"marking", "marking", 0},
		{"diffusion", "diffusion", 0},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var row experiments.E2Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.E2Flood(context.Background(), tc.variant, "ring", 8, tc.ttl)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.Activations), "activations")
			b.ReportMetric(float64(row.Delivered), "delivered")
			b.ReportMetric(float64(row.Bytes), "netBytes")
		})
	}
}

// --- E3: folders are cheap to move; cabinets are fast to access (§2) ---

func BenchmarkE3FolderMoveVsCabinetAccess(b *testing.B) {
	for _, size := range []int{64, 1024, 65536} {
		payload := bytes.Repeat([]byte("w"), size)
		f := folder.Of(payload, payload, payload, payload)
		b.Run(fmt.Sprintf("folderMove/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := folder.EncodeFolder(f)
				if _, err := folder.DecodeFolder(enc); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(4 * size))
		})
	}
	cab := folder.NewCabinet()
	for i := 0; i < 10000; i++ {
		cab.AppendString("BIG", fmt.Sprintf("element-%d", i))
	}
	b.Run("cabinetContains/10k-elements", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !cab.ContainsString("BIG", "element-9999") {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("cabinetTestAndAppend", func(b *testing.B) {
		c := folder.NewCabinet()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.TestAndAppendString("V", fmt.Sprintf("s%d", i))
		}
	})
}

// --- E4: meet as the sole IPC primitive (§2) ---

func BenchmarkE4MeetRexecCourier(b *testing.B) {
	newSys := func() *core.System {
		return core.NewSystem(3, core.SystemConfig{Seed: 4})
	}
	b.Run("localMeet", func(b *testing.B) {
		sys := newSys()
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
	b.Run("remoteMeet", func(b *testing.B) {
		sys := newSys()
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
	b.Run("rexecHop", func(b *testing.B) {
		sys := newSys()
		sys.SiteAt(1).Register("noop", core.AgentFunc(
			func(*core.MeetContext, *folder.Briefcase) error { return nil }))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bc := folder.NewBriefcase()
			bc.PutString(folder.HostFolder, "site-1")
			bc.PutString(folder.ContactFolder, "noop")
			if err := sys.SiteAt(0).Meet(context.Background(), core.AgRexec, bc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("taclAgentActivation", func(b *testing.B) {
		sys := newSys()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunScript(context.Background(), sys.SiteAt(0),
				`bc_push RESULT [expr {1 + 1}]`, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("taclJumpMigration", func(b *testing.B) {
		sys := newSys()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunScript(context.Background(), sys.SiteAt(0), `
				if {[host] eq "site-0"} { jump site-1 }
			`, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diffusionRing8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := core.NewSystem(8, core.SystemConfig{Seed: 4})
			sys.Ring()
			bc := folder.NewBriefcase()
			b.StartTimer()
			if err := sys.SiteAt(0).Meet(context.Background(), core.AgDiffusion, bc); err != nil {
				b.Fatal(err)
			}
			sys.Wait()
		}
	})
}

// --- E5: double spending (§3) ---

func BenchmarkE5DoubleSpend(b *testing.B) {
	var row experiments.E5Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.E5DoubleSpend(context.Background(), 500, 0.3, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.WithValidator), "acceptedWithValidator")
	b.ReportMetric(float64(row.Naive), "acceptedNaive")
	b.ReportMetric(float64(row.FraudsCaught), "fraudsCaught")
}

// --- E6: audit protocol (§3) ---

func BenchmarkE6AuditProtocol(b *testing.B) {
	correct, total := 0, 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E6AuditMatrix(context.Background(), 2)
		if err != nil {
			b.Fatal(err)
		}
		correct, total = 0, 0
		for _, r := range rows {
			correct += r.Correct
			total += r.Runs
		}
	}
	b.ReportMetric(float64(correct)/float64(total)*100, "verdictAccuracy%")
}

// --- E7: broker load balance (§4) ---

func BenchmarkE7BrokerLoadBalance(b *testing.B) {
	caps := []int64{8, 4, 2, 1, 1}
	for _, tc := range []struct {
		name   string
		policy string
		k      int
	}{
		{"random", "random", 0},
		{"round-robin", "round-robin", 0},
		{"broker-fresh", "broker", 1},
		{"broker-stale64", "broker", 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var row experiments.E7Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.E7Placement(tc.policy, 400, caps, tc.k, 7)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Imbalance, "imbalance")
		})
	}
}

// --- E8: rear-guard survival (§5) ---

func BenchmarkE8RearGuardSurvival(b *testing.B) {
	for _, guards := range []bool{false, true} {
		b.Run(fmt.Sprintf("guards=%v", guards), func(b *testing.B) {
			completed, trials, relaunches := 0, 0, 0
			for i := 0; i < b.N; i++ {
				row, err := experiments.E8Survival(context.Background(), 5, 4, 1.0, guards, int64(21+i))
				if err != nil {
					b.Fatal(err)
				}
				completed += row.Completed
				trials += row.Trials
				relaunches += row.Relaunches
			}
			b.ReportMetric(float64(completed)/float64(trials)*100, "completed%")
			b.ReportMetric(float64(relaunches)/float64(trials), "relaunches/trial")
		})
	}
}

// Ablation: guard detection interval vs recovery latency.
func BenchmarkE8GuardIntervalAblation(b *testing.B) {
	for _, interval := range []time.Duration{5 * time.Millisecond, 40 * time.Millisecond} {
		b.Run(fmt.Sprintf("interval=%v", interval), func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := experiments.E8IntervalAblation(context.Background(), 2, 4,
					[]time.Duration{interval}, int64(31+i))
				if err != nil {
					b.Fatal(err)
				}
				mean = rows[0].MeanTime
			}
			b.ReportMetric(float64(mean.Milliseconds()), "recoveryMs")
		})
	}
}

// --- E9: StormCast (§6) ---

func BenchmarkE9StormCast(b *testing.B) {
	for _, window := range []int{5, 50, 150} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			var row experiments.E9Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.E9StormCast(context.Background(), 4, 4, window)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.AgentBytes), "agentB")
			b.ReportMetric(float64(row.PullBytes), "pullB")
			b.ReportMetric(row.AccuracyPct, "accuracy%")
		})
	}
}

// --- E10: agent mail (§6) ---

func BenchmarkE10AgentMail(b *testing.B) {
	for _, receipts := range []bool{false, true} {
		b.Run(fmt.Sprintf("receipts=%v", receipts), func(b *testing.B) {
			var row experiments.E10Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.E10Mail(context.Background(), 4, 40, receipts)
				if err != nil {
					b.Fatal(err)
				}
				if row.Delivered != 40 {
					b.Fatalf("delivered %d/40", row.Delivered)
				}
			}
			b.ReportMetric(row.MsgPerSec, "msgs/sec")
		})
	}
}

// --- E11: guard interception overhead on the meet path (§3) ---

// BenchmarkGuardedMeet quantifies what the security subsystem costs per
// meet against the unguarded baseline (compare with E4 localMeet). The
// guarded variants must stay within ~15% of unguarded: the per-meet check
// is a SIG parse plus a capability lookup — no crypto, which happens once
// per network arrival instead.
func BenchmarkGuardedMeet(b *testing.B) {
	noop := core.AgentFunc(func(*core.MeetContext, *folder.Briefcase) error { return nil })
	run := func(b *testing.B, s *Site, bc *Briefcase) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Meet(context.Background(), "noop", bc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unguarded", func(b *testing.B) {
		sys := core.NewSystem(1, core.SystemConfig{Seed: 4})
		sys.SiteAt(0).Register("noop", noop)
		run(b, sys.SiteAt(0), NewBriefcase())
	})
	b.Run("guarded-unsigned", func(b *testing.B) {
		sys := core.NewSystem(1, core.SystemConfig{Seed: 4})
		sys.SiteAt(0).Register("noop", noop)
		InstallGuard(sys.SiteAt(0), NewGuard(nil, NewKeyring()))
		run(b, sys.SiteAt(0), NewBriefcase())
	})
	b.Run("guarded-signed-acl", func(b *testing.B) {
		sys := core.NewSystem(1, core.SystemConfig{Seed: 4})
		sys.SiteAt(0).Register("noop", noop)
		keys := NewKeyring()
		keys.Enroll("alice")
		policy := NewPolicy()
		policy.Grant("alice", Capability{Meet: []string{"noop"}})
		InstallGuard(sys.SiteAt(0), NewGuard(policy, keys))
		bc := NewBriefcase()
		bc.PutString("DATA", "payload")
		if err := SignBriefcase(keys, "alice", bc, "DATA"); err != nil {
			b.Fatal(err)
		}
		run(b, sys.SiteAt(0), bc)
	})
	b.Run("guarded-metered", func(b *testing.B) {
		// The full accountability path: a signed, funded TacL activation
		// under a meter, measured against taclAgentActivation in E4.
		sys := core.NewSystem(1, core.SystemConfig{Seed: 4})
		keys := NewKeyring()
		keys.Enroll("alice")
		g := NewGuard(NewPolicy(), keys)
		g.Meter = NewMeter(1000, 0)
		InstallGuard(sys.SiteAt(0), g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bc, err := SignedScript(keys, "alice", "", `bc_push RESULT [expr {1 + 1}]`, nil)
			if err != nil {
				b.Fatal(err)
			}
			bc.Put(CashFolder, NewFolder())
			if err := LaunchSigned(context.Background(), sys.SiteAt(0), bc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Facade sanity: the public API drives a full roam over TCP too ---

func BenchmarkFacadeRoamSimVsTCP(b *testing.B) {
	b.Run("simulated", func(b *testing.B) {
		sys := NewSystem(2, SystemConfig{Seed: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunScript(context.Background(), sys.SiteAt(0), `
				if {[host] eq "site-0"} { jump site-1 }
				bc_push RESULT done
			`, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		epA, err := NewTCPEndpoint("site-a", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer epA.Close()
		epB, err := NewTCPEndpoint("site-b", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer epB.Close()
		epA.AddPeer("site-b", epB.Addr())
		epB.AddPeer("site-a", epA.Addr())
		siteA := NewSite(epA, SiteConfig{})
		NewSite(epB, SiteConfig{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunScript(context.Background(), siteA, `
				if {[host] eq "site-a"} { jump site-b }
				bc_push RESULT done
			`, nil); err != nil {
				b.Fatal(err)
			}
		}
		_ = vnet.SiteID("")
	})
}
