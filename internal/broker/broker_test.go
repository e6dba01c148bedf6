package broker

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

func testSystem(t *testing.T, n int) *core.System {
	t.Helper()
	sys := core.NewSystem(n, core.SystemConfig{Seed: 5, CallTimeout: 50 * time.Millisecond})
	t.Cleanup(sys.Wait)
	return sys
}

func TestRegisterAndLookup(t *testing.T) {
	b := NewBroker()
	b.Register("weather", "site-1", "wsvc", 1)
	b.Register("weather", "site-2", "wsvc", 1)
	b.Register("mail", "site-3", "msvc", 1)
	got := b.Lookup("weather")
	if len(got) != 2 {
		t.Fatalf("Lookup = %v", got)
	}
	if len(b.Lookup("nosuch")) != 0 {
		t.Fatal("phantom providers")
	}
}

func TestRegisterUpdateKeepsFreshness(t *testing.T) {
	b := NewBroker()
	b.Register("svc", "s1", "a", 1)
	b.Report("s1", 9, 5)
	b.Register("svc", "s1", "a", 4) // capacity upgrade
	rows := b.Table()
	if len(rows) != 1 || !strings.Contains(rows[0], "|9|5") {
		t.Fatalf("report lost on re-register: %v", rows)
	}
}

func TestPlacePicksLeastLoaded(t *testing.T) {
	b := NewBroker()
	b.Register("svc", "busy", "a", 1)
	b.Register("svc", "idle", "a", 1)
	b.Report("busy", 10, 1)
	b.Report("idle", 0, 1)
	site, _, err := b.Place("svc")
	if err != nil || site != "idle" {
		t.Fatalf("Place = %q, %v", site, err)
	}
}

func TestPlaceRespectsCapacity(t *testing.T) {
	b := NewBroker()
	b.Register("svc", "small", "a", 1)
	b.Register("svc", "big", "a", 10)
	b.Report("small", 2, 1)
	b.Report("big", 5, 1) // 5/10 = 0.5 < 2/1
	site, _, err := b.Place("svc")
	if err != nil || site != "big" {
		t.Fatalf("Place = %q, %v", site, err)
	}
}

func TestPlaceOptimisticInFlight(t *testing.T) {
	// Consecutive placements between reports must spread, not pile onto
	// the same provider.
	b := NewBroker()
	b.Register("svc", "s1", "a", 1)
	b.Register("svc", "s2", "a", 1)
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		site, _, err := b.Place("svc")
		if err != nil {
			t.Fatal(err)
		}
		counts[site]++
	}
	if counts["s1"] != 5 || counts["s2"] != 5 {
		t.Fatalf("placements not spread: %v", counts)
	}
}

func TestPlaceNoProvider(t *testing.T) {
	b := NewBroker()
	if _, _, err := b.Place("ghost"); !errors.Is(err, ErrNoProvider) {
		t.Fatalf("err = %v", err)
	}
}

func TestReportFreshnessOrdering(t *testing.T) {
	b := NewBroker()
	b.Register("svc", "s1", "a", 1)
	b.Report("s1", 5, 10)
	b.Report("s1", 99, 3) // stale, must be ignored
	rows := b.Table()
	if !strings.Contains(rows[0], "|5|10") {
		t.Fatalf("stale report applied: %v", rows)
	}
}

func TestGossipMergesFresher(t *testing.T) {
	b1 := NewBroker()
	b2 := NewBroker()
	b1.Register("svc", "s1", "a", 2)
	b1.Report("s1", 7, 4)
	b2.Register("svc", "s2", "a", 1)

	if err := b2.MergeTable(b1.Table()); err != nil {
		t.Fatal(err)
	}
	if len(b2.Lookup("svc")) != 2 {
		t.Fatalf("gossip did not merge: %v", b2.Lookup("svc"))
	}
	// Staler data must not overwrite.
	b2.Report("s1", 1, 9)
	if err := b2.MergeTable(b1.Table()); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range b2.Table() {
		if strings.HasPrefix(row, "svc|s1|") && strings.Contains(row, "|1|9") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fresher local data lost in merge: %v", b2.Table())
	}
}

func TestMergeTableBadRows(t *testing.T) {
	b := NewBroker()
	if err := b.MergeTable([]string{"not-a-row"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
	if err := b.MergeTable([]string{"a|b|c|x|y|z"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestBrokerAgentOps(t *testing.T) {
	sys := testSystem(t, 2)
	bsite := sys.SiteAt(0)
	Install(bsite)

	do := func(fill func(bc *folder.Briefcase)) (*folder.Briefcase, error) {
		bc := folder.NewBriefcase()
		fill(bc)
		err := bsite.Meet(context.Background(), AgBroker, bc)
		return bc, err
	}

	if _, err := do(func(bc *folder.Briefcase) {
		bc.PutString(OpFolder, "register")
		bc.PutString(ServiceFolder, "predict")
		bc.PutString(SiteFolder, "site-1")
		bc.PutString(ProviderFolder, "expert")
		bc.PutString(CapacityFolder, "3")
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := do(func(bc *folder.Briefcase) {
		bc.PutString(OpFolder, "report")
		bc.PutString(SiteFolder, "site-1")
		bc.PutString(LoadFolder, "2")
		bc.PutString(SeqFolder, "1")
	}); err != nil {
		t.Fatal(err)
	}

	bc, err := do(func(bc *folder.Briefcase) {
		bc.PutString(OpFolder, "lookup")
		bc.PutString(ServiceFolder, "predict")
	})
	if err != nil {
		t.Fatal(err)
	}
	prov, _ := bc.Folder(ProvidersFolder)
	if prov.Len() != 1 || prov.Strings()[0] != "site-1/expert" {
		t.Fatalf("PROVIDERS = %v", prov.Strings())
	}

	bc, err = do(func(bc *folder.Briefcase) {
		bc.PutString(OpFolder, "place")
		bc.PutString(ServiceFolder, "predict")
	})
	if err != nil {
		t.Fatal(err)
	}
	chosen, _ := bc.Folder(ChosenFolder)
	if got := chosen.Strings(); got[0] != "site-1" || got[1] != "expert" {
		t.Fatalf("CHOSEN = %v", got)
	}

	if _, err := do(func(bc *folder.Briefcase) {
		bc.PutString(OpFolder, "nonsense")
	}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown op err = %v", err)
	}
	if _, err := do(func(bc *folder.Briefcase) {}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("missing op err = %v", err)
	}
}

func TestBrokerAgentGossipExchange(t *testing.T) {
	sys := testSystem(t, 2)
	b0 := Install(sys.SiteAt(0))
	b1 := Install(sys.SiteAt(1))
	b0.Register("svc", "x", "a", 1)
	b1.Register("svc", "y", "a", 1)

	// Site-0's broker gossips with site-1's broker through a remote meet.
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "gossip")
	bc.Put(TableFolder, folder.OfStrings(b0.Table()...))
	if err := sys.SiteAt(0).Meet(context.Background(), AgBroker, bc, core.At("site-1")); err != nil {
		t.Fatal(err)
	}
	// The reply carries b1's merged table; fold it into b0.
	tf, _ := bc.Folder(TableFolder)
	if err := b0.MergeTable(tf.Strings()); err != nil {
		t.Fatal(err)
	}
	if len(b0.Lookup("svc")) != 2 || len(b1.Lookup("svc")) != 2 {
		t.Fatalf("tables not symmetric after gossip: %v / %v", b0.Table(), b1.Table())
	}
}

func TestProtectedAgentFlow(t *testing.T) {
	sys := testSystem(t, 1)
	site := sys.SiteAt(0)
	b := Install(site)

	// The protected agent registers under a secret name; clients only know
	// the alias.
	secret := "secret-name-51a9"
	b.Protect("oracle", secret)

	// A client queues a meeting request: the request element is itself an
	// encoded briefcase (folders are uninterpreted and typeless).
	inner := folder.NewBriefcase()
	inner.PutString("QUESTION", "will it storm?")
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "request")
	bc.PutString(ServiceFolder, "oracle")
	bc.Put(RequestFolder, folder.Of(folder.EncodeBriefcase(inner)))
	if err := site.Meet(context.Background(), AgBroker, bc); err != nil {
		t.Fatal(err)
	}

	// Only the holder of the real name can drain the queue.
	drainReq := folder.NewBriefcase()
	drainReq.PutString(OpFolder, "drain")
	drainReq.PutString(ServiceFolder, "oracle")
	drainReq.PutString(ProviderFolder, "wrong-name")
	if err := site.Meet(context.Background(), AgBroker, drainReq); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("drain with wrong name: %v", err)
	}

	drainReq = folder.NewBriefcase()
	drainReq.PutString(OpFolder, "drain")
	drainReq.PutString(ServiceFolder, "oracle")
	drainReq.PutString(ProviderFolder, secret)
	if err := site.Meet(context.Background(), AgBroker, drainReq); err != nil {
		t.Fatal(err)
	}
	reqs, _ := drainReq.Folder(RequestsFolder)
	if reqs.Len() != 1 {
		t.Fatalf("drained %d requests", reqs.Len())
	}
	raw, _ := reqs.At(0)
	decoded, err := folder.DecodeBriefcase(raw)
	if err != nil {
		t.Fatal(err)
	}
	if q, _ := decoded.GetString("QUESTION"); q != "will it storm?" {
		t.Fatalf("QUESTION = %q", q)
	}

	// Queue is emptied by drain.
	drain2 := folder.NewBriefcase()
	drain2.PutString(OpFolder, "drain")
	drain2.PutString(ServiceFolder, "oracle")
	drain2.PutString(ProviderFolder, secret)
	if err := site.Meet(context.Background(), AgBroker, drain2); err != nil {
		t.Fatal(err)
	}
	if reqs2, _ := drain2.Folder(RequestsFolder); reqs2.Len() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestRequestForUnknownAlias(t *testing.T) {
	sys := testSystem(t, 1)
	site := sys.SiteAt(0)
	Install(site)
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "request")
	bc.PutString(ServiceFolder, "nobody")
	bc.Put(RequestFolder, folder.OfStrings("x"))
	if err := site.Meet(context.Background(), AgBroker, bc); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestMonitorOnDemand(t *testing.T) {
	sys := testSystem(t, 1)
	m := NewMonitor(sys.SiteAt(0))
	m.LoadFn = func() int64 { return 42 }
	bc := folder.NewBriefcase()
	if err := sys.SiteAt(0).Meet(context.Background(), AgMonitor, bc); err != nil {
		t.Fatal(err)
	}
	if l, _ := bc.GetString(LoadFolder); l != "42" {
		t.Fatalf("LOAD = %q", l)
	}
	if s, _ := bc.GetString(SiteFolder); s != "site-0" {
		t.Fatalf("SITE = %q", s)
	}
}

func TestMonitorReportTo(t *testing.T) {
	sys := testSystem(t, 2)
	b := Install(sys.SiteAt(0))
	b.Register("svc", "site-1", "a", 1)
	m := NewMonitor(sys.SiteAt(1))
	m.LoadFn = func() int64 { return 7 }
	if err := m.ReportTo(context.Background(), "site-0"); err != nil {
		t.Fatal(err)
	}
	rows := b.Table()
	if len(rows) != 1 || !strings.Contains(rows[0], "|7|") {
		t.Fatalf("table = %v", rows)
	}
}

func TestMonitorPump(t *testing.T) {
	sys := testSystem(t, 2)
	b := Install(sys.SiteAt(0))
	b.Register("svc", "site-1", "a", 1)
	m := NewMonitor(sys.SiteAt(1))
	ctx, cancel := context.WithCancel(context.Background())
	m.Pump(ctx, "site-0", 5*time.Millisecond)
	deadline := time.After(2 * time.Second)
	for {
		rows := b.Table()
		if len(rows) == 1 && !strings.HasSuffix(rows[0], "|0") {
			break // at least one report landed (seq > 0)
		}
		select {
		case <-deadline:
			t.Fatalf("no report arrived: %v", rows)
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	sys.Wait()
}

func TestTicketIssuePunch(t *testing.T) {
	o := NewTicketOffice()
	tk, err := o.Issue("svc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Remaining(tk) != 2 {
		t.Fatalf("remaining = %d", o.Remaining(tk))
	}
	if err := o.Punch(tk); err != nil {
		t.Fatal(err)
	}
	if err := o.Punch(tk); err != nil {
		t.Fatal(err)
	}
	if err := o.Punch(tk); !errors.Is(err, ErrTicketSpent) {
		t.Fatalf("third punch = %v", err)
	}
}

func TestTicketForgery(t *testing.T) {
	o := NewTicketOffice()
	tk, _ := o.Issue("svc", 1)
	forged := tk
	forged.Uses = 1000 // inflate allowance
	forged2, _ := DecodeTicket(forged.Encode())
	if err := o.Punch(forged2); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("forged ticket punched: %v", err)
	}
	// A ticket from a different office is rejected too.
	other := NewTicketOffice()
	alien, _ := other.Issue("svc", 1)
	if err := o.Punch(alien); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("alien ticket punched: %v", err)
	}
}

func TestTicketEncodeDecode(t *testing.T) {
	o := NewTicketOffice()
	tk, _ := o.Issue("weather", 5)
	back, err := DecodeTicket(tk.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back != tk {
		t.Fatalf("round trip: %+v vs %+v", back, tk)
	}
	if _, err := DecodeTicket("junk"); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("junk decoded: %v", err)
	}
	if _, err := DecodeTicket("a|b|notanumber|sig"); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("bad uses decoded: %v", err)
	}
}

func TestTicketAgent(t *testing.T) {
	sys := testSystem(t, 1)
	site := sys.SiteAt(0)
	InstallTicketAgent(site)

	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "issue")
	bc.PutString(ServiceFolder, "svc")
	bc.PutString(UsesFolder, "1")
	if err := site.Meet(context.Background(), AgTicket, bc); err != nil {
		t.Fatal(err)
	}
	raw, _ := bc.GetString(TicketFolder)
	if raw == "" {
		t.Fatal("no ticket issued")
	}

	punch := func() error {
		p := folder.NewBriefcase()
		p.PutString(OpFolder, "punch")
		p.PutString(TicketFolder, raw)
		return site.Meet(context.Background(), AgTicket, p)
	}
	if err := punch(); err != nil {
		t.Fatal(err)
	}
	if err := punch(); err == nil {
		t.Fatal("overused ticket accepted")
	}
}

func TestTicketIssueInvalidUses(t *testing.T) {
	o := NewTicketOffice()
	if _, err := o.Issue("svc", 0); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndToEndScheduling(t *testing.T) {
	// Full loop: providers register, monitors report, a client asks the
	// broker for placement and runs a job on the chosen provider.
	sys := testSystem(t, 4) // site-0 broker, sites 1-3 providers
	b := Install(sys.SiteAt(0))
	for i := 1; i <= 3; i++ {
		site := sys.SiteAt(i)
		site.Register("worker", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
			mc.Site.Cabinet().AppendString("JOBS", "done")
			return nil
		}))
		b.Register("compute", string(site.ID()), "worker", 1)
		NewMonitor(site)
	}
	for j := 0; j < 9; j++ {
		site, agent, err := b.Place("compute")
		if err != nil {
			t.Fatal(err)
		}
		bc := folder.NewBriefcase()
		if err := sys.SiteAt(0).Meet(context.Background(), agent, bc, core.At(vnetSiteID(site))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if n := sys.SiteAt(i).Cabinet().FolderLen("JOBS"); n != 3 {
			t.Fatalf("site %d ran %d jobs, want 3 (balanced)", i, n)
		}
	}
}

func vnetSiteID(s string) vnet.SiteID { return vnet.SiteID(s) }

func TestGossipConvergence(t *testing.T) {
	// N brokers each knowing one provider converge to identical tables
	// after a logarithmic number of pairwise anti-entropy rounds.
	const n = 8
	brokers := make([]*Broker, n)
	for i := range brokers {
		brokers[i] = NewBroker()
		brokers[i].Register("svc", strings.Repeat("s", i+1), "a", 1)
	}
	// Ring gossip: 3 sweeps suffice for n=8.
	for round := 0; round < 3; round++ {
		for i := range brokers {
			j := (i + 1) % n
			if err := brokers[j].MergeTable(brokers[i].Table()); err != nil {
				t.Fatal(err)
			}
			if err := brokers[i].MergeTable(brokers[j].Table()); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := strings.Join(brokers[0].Table(), "\n")
	for i, b := range brokers {
		if got := strings.Join(b.Table(), "\n"); got != want {
			t.Fatalf("broker %d diverged:\n%s\nvs\n%s", i, got, want)
		}
		if len(b.Lookup("svc")) != n {
			t.Fatalf("broker %d sees %d providers", i, len(b.Lookup("svc")))
		}
	}
}

func TestGossipIdempotent(t *testing.T) {
	b := NewBroker()
	b.Register("svc", "s1", "a", 2)
	b.Report("s1", 3, 7)
	before := strings.Join(b.Table(), "\n")
	for i := 0; i < 5; i++ {
		if err := b.MergeTable(b.Table()); err != nil {
			t.Fatal(err)
		}
	}
	if after := strings.Join(b.Table(), "\n"); after != before {
		t.Fatalf("self-merge changed the table:\n%s\nvs\n%s", after, before)
	}
}
