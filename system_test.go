package tacoma

// System-level integration test: every subsystem of the reproduction
// cooperating in one scenario, the "weather marketplace":
//
//  1. sensor sites publish a forecast service and register it with a
//     broker (scheduling, §4);
//  2. a client asks the broker for the least-loaded provider;
//  3. the client buys the forecast with electronic cash — bills validated
//     by the bank's validation agent, actions notarized (§3);
//  4. a guarded collector computes the forecast by roaming the sensor
//     sites while one of them crashes and restarts (rear guards, §5;
//     StormCast, §6);
//  5. the result is mailed to the customer as an agent-structured message
//     with a delivery receipt (§6).

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cash"
	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/mail"
	"repro/internal/rearguard"
	"repro/internal/stormcast"
	"repro/internal/vnet"
)

func TestWeatherMarketplaceEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Topology: site-0 = bank+broker ("town hall"), site-1 = customer,
	// sites 2..10 = a 3×3 sensor field.
	const w, h = 3, 3
	sys := core.NewSystem(2+w*h, core.SystemConfig{Seed: 1995, CallTimeout: 25 * time.Millisecond})
	defer sys.Wait()
	town := sys.SiteAt(0)
	home := sys.SiteAt(1)

	// --- cash and scheduling infrastructure ---
	bank, err := cash.NewBank(town)
	if err != nil {
		t.Fatal(err)
	}
	bkr := broker.Install(town)
	office := broker.InstallTicketAgent(town)

	// --- sensor field + rear-guard managers + mailboxes everywhere ---
	model := stormcast.DefaultModel(w, h, 1995)
	var sensorSites []vnet.SiteID
	managers := make(map[vnet.SiteID]*rearguard.Manager)
	for i := 0; i < sys.Len(); i++ {
		site := sys.SiteAt(i)
		m := rearguard.Install(site)
		m.Interval = 8 * time.Millisecond
		managers[site.ID()] = m
		mail.InstallMailbox(site)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			site := sys.SiteAt(2 + y*w + x)
			stormcast.InstallSensor(site, model, x, y)
			sensorSites = append(sensorSites, site.ID())
			bkr.Register("forecast", string(site.ID()), stormcast.AgSensor, 1)
			broker.NewMonitor(site)
		}
	}

	// --- 1+2: the customer asks the broker where forecasts are sold ---
	placeReq := folder.NewBriefcase()
	placeReq.PutString(broker.OpFolder, "lookup")
	placeReq.PutString(broker.ServiceFolder, "forecast")
	if err := home.Meet(ctx, broker.AgBroker, placeReq, core.At(town.ID())); err != nil {
		t.Fatal(err)
	}
	providers, err := placeReq.Folder(broker.ProvidersFolder)
	if err != nil || providers.Len() != w*h {
		t.Fatalf("broker knows %v providers, err=%v", providers, err)
	}

	// --- 3: purchase (honest) with a ticket granting the computation ---
	customer := cash.NewParty(bank, "customer")
	weatherco := cash.NewParty(bank, "weatherco")
	funds, err := bank.Mint.IssueMany(50, 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	customer.Wallet.Add(funds...)
	out, err := cash.Purchase(ctx, bank, "forecast-order-1", "full-grid forecast", 75,
		customer, weatherco, cash.HonestRun)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Paid || !out.Delivered || out.Audited {
		t.Fatalf("purchase outcome: %+v", out)
	}
	if weatherco.Wallet.Balance() != 75 || customer.Wallet.Balance() != 25 {
		t.Fatalf("balances: seller=%d customer=%d", weatherco.Wallet.Balance(), customer.Wallet.Balance())
	}
	ticket, err := office.Issue("forecast", 1)
	if err != nil {
		t.Fatal(err)
	}

	// --- 4: guarded roaming computation over the sensor field, with a
	// crash of one sensor site mid-journey ---
	const tstep, window = 12, 8
	victim := sensorSites[4]
	go func() {
		time.Sleep(15 * time.Millisecond)
		sys.Net.Crash(victim)
		time.Sleep(60 * time.Millisecond)
		sys.Net.Restart(victim)
	}()

	payload := folder.NewBriefcase()
	payload.PutString(stormcast.OpFolder, "summary")
	payload.PutString(stormcast.TimeFolder, fmt.Sprint(tstep))
	payload.PutString(stormcast.WindowFolder, fmt.Sprint(window))
	ch, err := managers[home.ID()].Launch(ctx, rearguard.Config{
		ID: "forecast-order-1", Task: stormcast.AgSensor,
		Itinerary: sensorSites, Guards: true,
	}, payload)
	if err != nil {
		t.Fatal(err)
	}
	res := rearguard.Wait(ch, 10*time.Second)
	if !res.Completed {
		t.Fatal("guarded forecast computation did not complete")
	}
	summaries, err := res.Briefcase.Folder(stormcast.SummaryFolder)
	if err != nil || summaries.Len() < w*h-1 {
		t.Fatalf("summaries: %v (err=%v, skipped=%v)", summaries, err, res.Skipped)
	}

	// The expert turns carried summaries into the forecast.
	var parsed []stormcast.Summary
	for _, raw := range summaries.Strings() {
		s, err := stormcast.ParseSummary(raw)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, s)
	}
	forecast := stormcast.DefaultExpert().Predict(tstep, parsed)
	if !forecast.Storm {
		t.Fatalf("storm at t=%d not predicted from %d summaries", tstep, len(parsed))
	}

	// The service punches the customer's ticket exactly once.
	if err := office.Punch(ticket); err != nil {
		t.Fatal(err)
	}
	if err := office.Punch(ticket); err == nil {
		t.Fatal("single-use ticket punched twice")
	}

	// --- 5: mail the forecast to the customer, message as agent ---
	msg := mail.Message{
		From:    "weatherco@" + string(town.ID()),
		To:      "customer@" + string(home.ID()),
		Subject: "your forecast",
		Body:    fmt.Sprintf("storm=%v stormy-sites=%d", forecast.Storm, len(forecast.Stormy)),
	}
	if err := mail.Send(ctx, town, msg, true); err != nil {
		t.Fatal(err)
	}
	headers, err := mail.List(ctx, home, "customer", home.ID())
	if err != nil || len(headers) != 1 {
		t.Fatalf("customer mailbox: %v, %v", headers, err)
	}
	delivered, err := mail.Fetch(ctx, home, "customer", home.ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if delivered.Body != msg.Body {
		t.Fatalf("mail body = %q", delivered.Body)
	}
	if len(mail.Receipts(town, "weatherco")) != 1 {
		t.Fatal("sender got no delivery receipt")
	}

	// Money supply conserved through the whole scenario.
	if bank.Mint.Outstanding() != bank.Mint.Issued() {
		t.Fatalf("money supply drifted: issued=%d outstanding=%d",
			bank.Mint.Issued(), bank.Mint.Outstanding())
	}
}

// TestMeteredRoamingAgent combines cycle billing with migration: the agent
// pays for cycles at a metered site and is aborted when its wallet empties.
func TestMeteredRoamingAgent(t *testing.T) {
	cb := cash.NewCycleBilling(20)
	sys := core.NewSystem(2, core.SystemConfig{
		Seed: 2,
		Site: core.SiteConfig{StepHookFactory: cb.Factory},
	})
	defer sys.Wait()

	mint := cash.NewMint()
	wallet := cash.NewWallet()
	bills, err := mint.IssueMany(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wallet.Add(bills...)
	// The roaming agent arrives via rexec, so billing keys on the rexec
	// initiator identity at the destination.
	cb.Fund("rexec@site-0", wallet)

	_, err = core.RunScript(context.Background(), sys.SiteAt(0), `
		if {[host] eq "site-0"} { jump site-1 }
		set i 0
		while {1} { incr i }
	`, nil)
	if err == nil {
		t.Fatal("runaway metered agent was not aborted")
	}
	if wallet.Balance() != 0 {
		t.Fatalf("wallet balance = %d, want 0", wallet.Balance())
	}
	if cb.Earned() != 3 {
		t.Fatalf("treasury earned %d, want 3", cb.Earned())
	}
}
