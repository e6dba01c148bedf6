package guard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cash"
	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/tacl"
	"repro/internal/vnet"
)

// AgBilling is the system agent receiving billing notices at an agent's
// home site; Install registers it alongside the guard.
const AgBilling = "ag_billing"

// billingShipTimeout bounds the detached delivery of a billing notice.
const billingShipTimeout = 5 * time.Second

// Guard bundles a site's security state — capability policy, signature
// keyring, optional meter — and implements the kernel's core.Guard hook
// interface. Construct with New, then Install at a site.
type Guard struct {
	// Policy is the site's capability ACL and firewall switch (never nil).
	Policy *Policy
	// Keys verifies briefcase signatures at the boundary (never nil).
	Keys *Keyring
	// Meter, if non-nil, charges funded activations for their cycles.
	Meter *Meter

	site *core.Site

	// mcache memoizes the last CheckMeet verdict. An activation performs
	// many meets with the same briefcase under the same policy snapshot,
	// so one entry absorbs most lookups. Keying on the SIG *folder pointer*
	// (not contents) is sound because every operation that changes a
	// briefcase's identity — Sign, network arrival (ReplaceAll), Put —
	// installs a fresh *Folder; and keying on the snapshot pointer
	// invalidates the entry whenever the policy mutates.
	mcache atomic.Pointer[meetVerdict]
}

// meetVerdict is one memoized CheckMeet result.
type meetVerdict struct {
	snap    *policySnapshot
	sig     *folder.Folder
	agent   string
	allowed bool
}

var _ core.Guard = (*Guard)(nil)

// New creates a guard over the given policy and keyring; nil arguments get
// fresh permissive defaults.
func New(policy *Policy, keys *Keyring) *Guard {
	if policy == nil {
		policy = NewPolicy()
	}
	if keys == nil {
		keys = NewKeyring()
	}
	return &Guard{Policy: policy, Keys: keys}
}

// Install attaches the guard to a site: the site's meet path, network
// boundary, cabinet access, and TacL step accounting all start flowing
// through it, and the ag_billing receiver is registered so other sites can
// deliver billing notices here.
func Install(s *core.Site, g *Guard) *Guard {
	if g == nil {
		g = New(nil, nil)
	}
	g.site = s
	s.Register(AgBilling, core.AgentFunc(g.agBilling))
	s.SetGuard(g)
	return g
}

// implicitMeet reports whether the agent is always reachable: ag_tacl and
// rexec are the execution and departure primitives without which a visitor
// could not run or leave, and ag_billing must accept bills from anyone.
func implicitMeet(agent string) bool {
	return agent == core.AgTacl || agent == core.AgRexec || agent == AgBilling
}

// CheckMeet enforces the capability ACL on the meet path. It does no
// cryptography: the principal claim in SIG was verified when the briefcase
// crossed a trust boundary (CheckArrival), and locally injected briefcases
// are the site operator's own.
func (g *Guard) CheckMeet(mc *core.MeetContext, agent string, bc *folder.Briefcase) error {
	snap := g.Policy.snap.Load()
	if snap.permissive || implicitMeet(agent) {
		return nil
	}
	sig := bc.Lookup(SigFolder)
	if v := g.mcache.Load(); v != nil && v.snap == snap && v.sig == sig && v.agent == agent {
		if v.allowed {
			return nil
		}
		return g.refuseMeet(bc, agent)
	}
	cap := snap.capFor(principalOfSig(sig))
	// cap == nil means "no grant and no default". At an open site that is
	// unrestricted; at a firewall site it is a denial — otherwise an
	// admitted agent could shed its SIG folder (or arrive impersonating an
	// unknown principal) and escape the ACL entirely.
	allowed := cap == nil && !snap.firewall || cap != nil && cap.meet.allows(agent)
	g.mcache.Store(&meetVerdict{snap: snap, sig: sig, agent: agent, allowed: allowed})
	if allowed {
		return nil
	}
	return g.refuseMeet(bc, agent)
}

func (g *Guard) refuseMeet(bc *folder.Briefcase, agent string) error {
	return fmt.Errorf("guard: principal %q may not meet %q", Principal(bc), agent)
}

// CheckBriefcase protects the folders the guard's security rests on from
// in-script tampering: an agent must not be able to shed or rewrite its
// identity (SIG) or conjure funds (CASH) with briefcase builtins. Native
// agents (validator, signer) still manage these folders through Go APIs.
func (g *Guard) CheckBriefcase(mc *core.MeetContext, bc *folder.Briefcase, name string) error {
	if name == SigFolder || name == CashFolder || name == HomeFolder {
		return fmt.Errorf("guard: folder %q is guard-managed and cannot be mutated by scripts", name)
	}
	return nil
}

// CheckCabinet enforces the capability ACL on cabinet folder access. As on
// the meet path, "no grant and no default" denies at a firewall site.
func (g *Guard) CheckCabinet(mc *core.MeetContext, bc *folder.Briefcase, name string, write bool) error {
	snap := g.Policy.snap.Load()
	if snap.permissive {
		return nil
	}
	cap := snap.capFor(principalBytes(bc))
	if cap == nil {
		if !snap.firewall {
			return nil
		}
		return fmt.Errorf("guard: principal %q holds no capability for cabinet access", Principal(bc))
	}
	if write {
		if cap.write.allows(name) {
			return nil
		}
		return fmt.Errorf("guard: principal %q may not write cabinet folder %q", Principal(bc), name)
	}
	if cap.read.allows(name) {
		return nil
	}
	return fmt.Errorf("guard: principal %q may not read cabinet folder %q", Principal(bc), name)
}

// CheckArrival is the firewall: it screens inbound network agents before
// any meet is dispatched. A forged signature is rejected unconditionally;
// in firewall mode the briefcase must additionally be signed by a known
// principal holding some capability (billing notices excepted), and—when
// the policy demands it—carry electronic cash.
func (g *Guard) CheckArrival(origin, agent string, bc *folder.Briefcase) error {
	principal, err := Verify(g.Keys, bc)
	firewall := g.Policy.Firewall()
	if err != nil {
		// Unsigned briefcases and signatures by principals this site has
		// no key for are indistinguishable from "not addressed to my trust
		// domain": open sites admit them (a metering-only site must not
		// reject signed agents merely for being signed elsewhere), firewalls
		// refuse them. Only a provably forged signature — known principal,
		// wrong MAC — is hostile everywhere.
		if errors.Is(err, ErrUnsigned) || errors.Is(err, ErrUnknownPrincipal) {
			if !firewall {
				return nil
			}
			if errors.Is(err, ErrUnsigned) {
				return fmt.Errorf("firewall %s: unsigned briefcase from %s refused", g.site.ID(), origin)
			}
			return fmt.Errorf("firewall %s: %w", g.site.ID(), err)
		}
		return fmt.Errorf("firewall %s: %w", g.site.ID(), err)
	}
	if !firewall || agent == AgBilling {
		return nil
	}
	if !g.Policy.hasCapability(principal) {
		return fmt.Errorf("firewall %s: principal %q holds no capability here", g.site.ID(), principal)
	}
	if g.Policy.RequireCash() {
		f, ferr := bc.Folder(CashFolder)
		if ferr != nil || cash.FolderBalance(f) <= 0 {
			return fmt.Errorf("firewall %s: principal %q arrived without funds", g.site.ID(), principal)
		}
	}
	return nil
}

// StepHook implements metered meets: funded activations (briefcase carries
// a CASH folder) are charged the activation fee on their first step and one
// unit per Meter.StepsPerUnit steps thereafter. When the balance cannot
// cover a charge the remaining bills are confiscated, a billing record is
// filed and shipped to the agent's HOME site, and the activation is aborted.
func (g *Guard) StepHook(mc *core.MeetContext, bc *folder.Briefcase) func() error {
	m := g.Meter
	if m == nil || !bc.Has(CashFolder) {
		return nil
	}
	cashF, err := bc.Folder(CashFolder)
	if err != nil {
		return nil
	}
	steps := 0
	var charged int64
	return func() error {
		steps++
		var due int64
		if steps == 1 {
			due += m.ActivationFee
		}
		if m.StepsPerUnit > 0 && steps%m.StepsPerUnit == 0 {
			due++
		}
		if due == 0 {
			return nil
		}
		got, err := m.charge(cashF, due)
		charged += got
		if err == nil {
			return nil
		}
		charged += m.confiscate(cashF)
		rec := BillingRecord{
			Principal: Principal(bc),
			Agent:     mc.Agent,
			Site:      string(g.site.ID()),
			Amount:    charged,
			Steps:     steps,
			Reason:    "budget exhausted: " + err.Error(),
		}
		m.file(rec)
		g.shipBillingHome(bc, rec)
		return fmt.Errorf("guard: agent %q terminated at %s after %d steps: %w",
			rec.Principal, g.site.ID(), steps, err)
	}
}

// shipBillingHome files the record in the local cabinet and, when the
// briefcase names a HOME site, ships a copy there as a detached meet with
// ag_billing — the paper's accountability loop: the launching site sees
// what its agent was billed, even though the agent itself was terminated.
func (g *Guard) shipBillingHome(bc *folder.Briefcase, rec BillingRecord) {
	site := g.site
	site.Cabinet().AppendString(BillingFolder, rec.Encode())
	home, err := bc.GetString(HomeFolder)
	if err != nil || home == "" || home == string(site.ID()) {
		return
	}
	notice := folder.NewBriefcase()
	notice.Ensure(BillingFolder).PushString(rec.Encode())
	// Sign as this site when the keyring knows our key, so firewalled home
	// sites accept the notice.
	if sp := SitePrincipal(site.ID()); g.Keys.Has(sp) {
		if err := Sign(g.Keys, sp, notice, BillingFolder); err != nil {
			site.Cabinet().AppendString("LOG", "guard: sign billing notice: "+err.Error())
		}
	}
	site.Go(func() {
		ctx, cancel := context.WithTimeout(context.Background(), billingShipTimeout)
		defer cancel()
		if err := site.Meet(ctx, AgBilling, notice, core.At(vnet.SiteID(home))); err != nil {
			site.Cabinet().AppendString("LOG", "guard: billing notice to "+home+": "+err.Error())
		}
	})
}

// Bind registers the guard-aware TacL builtins for one activation:
//
//	acl_check agent        → 1 if the current principal may meet agent
//	sign_bc principal      → sign this briefcase with a site-held key
//	principal              → the briefcase's (boundary-verified) principal
//	ecu_balance            → total ECU value in the CASH folder
func (g *Guard) Bind(in *tacl.Interp, mc *core.MeetContext, bc *folder.Briefcase) {
	in.Register("acl_check", func(_ *tacl.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", fmt.Errorf("wrong # args: should be %q", "acl_check agent")
		}
		return tacl.FormatBool(g.CheckMeet(mc, args[0], bc) == nil), nil
	})
	in.Register("sign_bc", func(_ *tacl.Interp, args []string) (string, error) {
		if len(args) < 1 {
			return "", fmt.Errorf("wrong # args: should be %q", "sign_bc principal ?folder ...?")
		}
		// HMAC keys are symmetric: any site that can verify a principal
		// can also sign as it. Exposing that to scripts is safe only at a
		// fully permissive site — the operator's own launching site. A
		// site enforcing any capability hosts untrusted visitors, and
		// handing them the pen would let any admitted agent escalate to
		// any enrolled principal.
		if !g.Policy.snap.Load().permissive {
			return "", fmt.Errorf("sign_bc: disabled at sites enforcing capabilities")
		}
		return "", Sign(g.Keys, args[0], bc, args[1:]...)
	})
	in.Register("principal", func(_ *tacl.Interp, args []string) (string, error) {
		return Principal(bc), nil
	})
	in.Register("ecu_balance", func(_ *tacl.Interp, args []string) (string, error) {
		f, err := bc.Folder(CashFolder)
		if err != nil {
			return "0", nil
		}
		return fmt.Sprintf("%d", cash.FolderBalance(f)), nil
	})
}

// agBilling receives billing notices. Notices whose briefcase verifies
// under a site principal ("site/<id>") are filed in the cabinet's BILLING
// folder — the launching party's accountability log; anything else (no
// signature, unknown key, or a non-site principal) is quarantined in
// UnverifiedBillingFolder so a visitor cannot pollute the attested log
// with fabricated bills.
func (g *Guard) agBilling(mc *core.MeetContext, bc *folder.Briefcase) error {
	f, err := bc.Folder(BillingFolder)
	if err != nil {
		return fmt.Errorf("ag_billing: %w", err)
	}
	target := UnverifiedBillingFolder
	if p, err := Verify(g.Keys, bc); err == nil && strings.HasPrefix(p, "site/") {
		target = BillingFolder
	}
	for _, rec := range f.Strings() {
		mc.Site.Cabinet().AppendString(target, rec)
	}
	bc.PutString(folder.ResultFolder, "billed")
	return nil
}
