package cash

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/folder"
)

// Behavior selects how each party acts in a purchase, driving the audit
// experiment's cheat scenarios.
type Behavior int

// Purchase behaviors.
const (
	// HonestRun: buyer pays, seller delivers, everyone documents.
	HonestRun Behavior = iota
	// BuyerSkipsPayment: buyer documents a payment but never sends bills,
	// then complains about missing service.
	BuyerSkipsPayment
	// SellerDeniesPayment: seller validates the payment, keeps the money,
	// and claims never to have been paid.
	SellerDeniesPayment
	// SellerSkipsDelivery: seller takes the payment and ships nothing.
	SellerSkipsDelivery
	// BuyerDeniesReceipt: buyer receives the service and claims otherwise.
	BuyerDeniesReceipt
)

// Outcome reports what a purchase run produced.
type Outcome struct {
	// Paid reports whether the seller validated a payment.
	Paid bool
	// Delivered reports whether the buyer received the service.
	Delivered bool
	// Audited reports whether a dispute was raised.
	Audited bool
	// Verdict is the auditor's verdict when Audited.
	Verdict string
	// Reason is the auditor's explanation.
	Reason string
}

// Party is one side of a purchase: a name, a signing key, and a wallet.
type Party struct {
	Name   string
	Key    []byte
	Wallet *Wallet
}

// NewParty enrolls a named party with the bank's key ring.
func NewParty(b *Bank, name string) *Party {
	return &Party{Name: name, Key: b.Keys.Enroll(name), Wallet: NewWallet()}
}

// serviceHash commits to the delivered goods.
func serviceHash(service string) string {
	h := sha256.Sum256([]byte(service))
	return hex.EncodeToString(h[:])
}

// notarize files one signed statement with the bank's notary.
func notarize(ctx context.Context, b *Bank, st Statement) error {
	bc := folder.NewBriefcase()
	bc.Put(StatementFolder, folder.OfStrings(st.Encode()))
	return b.Site.Meet(ctx, AgNotary, bc)
}

// validate presents bills to the bank's validator, returning fresh ones.
func validate(ctx context.Context, b *Bank, ecus []ECU, split []int64) ([]ECU, error) {
	bc := folder.NewBriefcase()
	bc.Put(CashFolder, folder.OfStrings(FormatECUs(ecus)...))
	if len(split) > 0 {
		sf := folder.New()
		for _, a := range split {
			sf.PushString(fmt.Sprintf("%d", a))
		}
		bc.Put(SplitFolder, sf)
	}
	if err := b.Site.Meet(ctx, AgValidator, bc); err != nil {
		return nil, err
	}
	cf, err := bc.Folder(CashFolder)
	if err != nil {
		return nil, err
	}
	return ParseECUs(cf.Strings())
}

// Audit raises a dispute with the bank's auditor and returns the verdict.
func Audit(ctx context.Context, b *Bank, contract, claim string) (verdict, reason string, err error) {
	bc := folder.NewBriefcase()
	bc.PutString(ContractFolder, contract)
	bc.PutString(ClaimFolder, claim)
	if err := b.Site.Meet(ctx, AgAuditor, bc); err != nil {
		return "", "", err
	}
	vf, err := bc.Folder(VerdictFolder)
	if err != nil {
		return "", "", err
	}
	verdict, _ = vf.StringAt(0)
	reason, _ = vf.StringAt(1)
	return verdict, reason, nil
}

// Purchase runs the paper's fair-exchange protocol for one contract: the
// buyer pays the seller for a service, both parties document their actions
// with the notary, and — because electronic cash is untraceable and
// two-step exchanges let either party cheat — any grievance is settled by
// an audit rather than by a transaction mechanism.
//
// The exchange itself is deliberately NOT atomic. Depending on behavior,
// one party defects; Purchase then raises the appropriate claim and
// returns the auditor's verdict.
func Purchase(ctx context.Context, b *Bank, contract, service string, price int64,
	buyer, seller *Party, behavior Behavior) (Outcome, error) {

	var out Outcome

	// --- Step 1: buyer withdraws bills and documents the payment. ---
	bills, err := buyer.Wallet.Withdraw(price)
	if err != nil {
		return out, fmt.Errorf("purchase %s: %w", contract, err)
	}
	if got := Total(bills); got > price {
		// Exchange for exact denominations at the validator: price + change.
		fresh, err := validate(ctx, b, bills, []int64{price, got - price})
		if err != nil {
			return out, fmt.Errorf("purchase %s: making change: %w", contract, err)
		}
		bills = fresh[:1]
		buyer.Wallet.Add(fresh[1:]...)
	}
	commitment := Commitment(bills)
	if err := notarize(ctx, b, Sign(buyer.Key, contract, buyer.Name, PhasePay, commitment)); err != nil {
		return out, err
	}

	if behavior == BuyerSkipsPayment {
		// The buyer documented a payment but keeps the bills, then has the
		// gall to complain about the missing service.
		buyer.Wallet.Add(bills...)
		out.Audited = true
		out.Verdict, out.Reason, err = Audit(ctx, b, contract, ClaimNoService)
		return out, err
	}

	// --- Step 2: bills travel to the seller (briefcase transfer), who
	// must validate before rendering service. ---
	validated, err := validate(ctx, b, bills, nil)
	if err != nil {
		return out, fmt.Errorf("purchase %s: seller validating: %w", contract, err)
	}
	seller.Wallet.Add(validated...)
	out.Paid = true

	if behavior == SellerDeniesPayment {
		// Seller keeps the validated bills and raises a false claim.
		out.Audited = true
		out.Verdict, out.Reason, err = Audit(ctx, b, contract, ClaimNoPayment)
		return out, err
	}
	if err := notarize(ctx, b, Sign(seller.Key, contract, seller.Name, PhasePaid, commitment)); err != nil {
		return out, err
	}

	// --- Step 3: seller delivers and documents; buyer documents receipt. ---
	if behavior == SellerSkipsDelivery {
		out.Audited = true
		out.Verdict, out.Reason, err = Audit(ctx, b, contract, ClaimNoService)
		return out, err
	}
	sh := serviceHash(service)
	if err := notarize(ctx, b, Sign(seller.Key, contract, seller.Name, PhaseDelivered, sh)); err != nil {
		return out, err
	}
	out.Delivered = true

	if behavior == BuyerDeniesReceipt {
		// Buyer got the goods, documents nothing, and demands an audit.
		out.Audited = true
		out.Verdict, out.Reason, err = Audit(ctx, b, contract, ClaimNoService)
		return out, err
	}
	if err := notarize(ctx, b, Sign(buyer.Key, contract, buyer.Name, PhaseReceived, sh)); err != nil {
		return out, err
	}
	return out, nil
}

// ExpectedVerdict maps a behavior to the verdict a correct auditor must
// reach, used by tests and the E6 experiment.
func ExpectedVerdict(behavior Behavior) string {
	switch behavior {
	case BuyerSkipsPayment, BuyerDeniesReceipt:
		return VerdictBuyerCheated
	case SellerDeniesPayment, SellerSkipsDelivery:
		return VerdictSellerCheats
	default:
		return VerdictNoViolation
	}
}
