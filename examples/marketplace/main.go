// Marketplace: electronic cash, validation, and the audit protocol from
// section 3 of the paper.
//
// A buyer purchases weather forecasts from a seller using untraceable
// electronic currency units. The validation agent defeats double spending
// by retiring and reissuing bills; disputed contracts are settled by
// audits over notarized, HMAC-signed statements rather than by a
// transaction mechanism. Run with:
//
//	go run ./examples/marketplace
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cash"
	"repro/internal/core"
	"repro/internal/folder"
)

func main() {
	sys := core.NewSystem(1, core.SystemConfig{Seed: 3})
	defer sys.Wait()
	bank, err := cash.NewBank(sys.SiteAt(0))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	buyer := cash.NewParty(bank, "dag")
	seller := cash.NewParty(bank, "fred")
	bills, err := bank.Mint.IssueMany(100, 50, 20, 20, 10)
	if err != nil {
		log.Fatal(err)
	}
	buyer.Wallet.Add(bills...)
	fmt.Printf("buyer funded: %d ECU in %d bills\n\n", buyer.Wallet.Balance(), buyer.Wallet.Count())

	// --- An honest purchase. ---
	out, err := cash.Purchase(ctx, bank, "forecast-1", "storm forecast for Tromsø", 130,
		buyer, seller, cash.HonestRun)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("honest purchase: paid=%v delivered=%v audited=%v\n", out.Paid, out.Delivered, out.Audited)
	fmt.Printf("  buyer balance %d, seller balance %d\n\n", buyer.Wallet.Balance(), seller.Wallet.Balance())

	// --- A double-spend attempt, foiled by the validation agent. ---
	bill, _ := bank.Mint.Issue(25)
	spend := func() error {
		bc := folder.NewBriefcase()
		bc.Put(cash.CashFolder, folder.OfStrings(bill.String()))
		return bank.Site.Meet(ctx, cash.AgValidator, bc)
	}
	if err := spend(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("first spend of bill: accepted")
	if err := spend(); err != nil {
		fmt.Printf("second spend of same bill: REJECTED (%v)\n\n", err)
	} else {
		log.Fatal("double spend went undetected!")
	}

	// --- Cheating scenarios settled by audit. ---
	for _, tc := range []struct {
		name     string
		behavior cash.Behavior
	}{
		{"seller takes payment, denies it", cash.SellerDeniesPayment},
		{"seller takes payment, ships nothing", cash.SellerSkipsDelivery},
		{"buyer claims to have paid, kept the money", cash.BuyerSkipsPayment},
		{"buyer got the goods, demands refund", cash.BuyerDeniesReceipt},
	} {
		b := cash.NewParty(bank, "buyer-"+tc.name[:6])
		s := cash.NewParty(bank, "seller-"+tc.name[:6])
		funds, _ := bank.Mint.IssueMany(100)
		b.Wallet.Add(funds...)
		out, err := cash.Purchase(ctx, bank, "c/"+tc.name, "svc", 100, b, s, tc.behavior)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s -> verdict: %s (%s)\n", tc.name, out.Verdict, out.Reason)
		if out.Verdict != cash.ExpectedVerdict(tc.behavior) {
			log.Fatal("auditor reached the wrong verdict!")
		}
	}

	fmt.Printf("\nmint: issued=%d outstanding=%d rejected-frauds=%d\n",
		bank.Mint.Issued(), bank.Mint.Outstanding(), bank.Mint.Frauds())
}
