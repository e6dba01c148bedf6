package core

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"repro/internal/folder"
	"repro/internal/vnet"
)

// Well-known system agent names. These are the paper's basic services:
// everything else an agent needs is provided by meeting one of them.
const (
	// AgTacl executes a TacL script popped from the CODE folder (the
	// paper's ag_tcl).
	AgTacl = "ag_tacl"
	// AgRexec moves execution to another site: it expects a HOST folder
	// naming the destination and a CONTACT folder naming the agent to
	// execute there.
	AgRexec = "rexec"
	// AgCourier transfers a folder to a specified agent on a specified
	// machine, letting agents communicate without meeting on a common
	// machine.
	AgCourier = "courier"
	// AgDiffusion executes a CONTACT agent locally, then clones itself at
	// every site in the set difference of the site-local SITES folder and
	// the briefcase SITES folder.
	AgDiffusion = "diffusion"
)

// Folder names used by the system agents beyond those in package folder.
const (
	// DetachFolder, when present, asks rexec/courier to terminate the meet
	// immediately and perform the transfer in the background — the agent
	// "may continue executing concurrently" after the meet.
	DetachFolder = "DETACH"
	// FolderNameFolder names the folder a courier should transfer.
	FolderNameFolder = "FOLDER"
	// DiffIDFolder carries the unique id of one diffusion computation so
	// site-local visit marks from different diffusions never collide.
	DiffIDFolder = "DIFF_ID"
)

func registerSystemAgents(s *Site) {
	s.Register(AgTacl, AgentFunc(agTacl))
	s.Register(AgRexec, AgentFunc(agRexec))
	s.Register(AgCourier, AgentFunc(agCourier))
	s.Register(AgDiffusion, AgentFunc(agDiffusion))
}

// agTacl pops a TacL script from the CODE folder and executes it. The
// script's briefcase commands operate on the same briefcase the meet was
// invoked with, so results flow back to the initiator.
func agTacl(mc *MeetContext, bc *folder.Briefcase) error {
	code, err := bc.Folder(folder.CodeFolder)
	if err != nil {
		return fmt.Errorf("ag_tacl: %w", err)
	}
	src, err := code.Pop()
	if err != nil {
		return fmt.Errorf("ag_tacl: empty CODE folder: %w", err)
	}
	return runTacL(mc, bc, string(src))
}

// agRexec implements the paper's rexec agent: it expects a HOST folder
// naming the destination site and a CONTACT folder naming the agent to
// execute there; the rest of the briefcase travels along. With a DETACH
// folder present, rexec terminates the meet at once and ships the agent in
// the background.
func agRexec(mc *MeetContext, bc *folder.Briefcase) error {
	host, err := bc.GetString(folder.HostFolder)
	if err != nil {
		return fmt.Errorf("rexec: %w", err)
	}
	contact, err := bc.GetString(folder.ContactFolder)
	if err != nil {
		return fmt.Errorf("rexec: %w", err)
	}
	detach := bc.Has(DetachFolder)
	// HOST/CONTACT/DETACH are arguments to rexec, not part of the moving
	// agent's state.
	bc.Delete(folder.HostFolder)
	bc.Delete(folder.ContactFolder)
	bc.Delete(DetachFolder)

	if detach {
		shipped := bc.Clone()
		site := mc.Site
		site.Go(func() {
			// Background shipment: failures surface only in the site's
			// cabinet log, exactly like a lost letter.
			if err := site.remoteMeet(mc.Ctx, vnet.SiteID(host), contact, shipped); err != nil {
				site.Cabinet().AppendString("LOG", "rexec detach: "+err.Error())
			}
		})
		return nil
	}
	return mc.Site.remoteMeet(mc.Ctx, vnet.SiteID(host), contact, bc)
}

// agCourier transfers one named folder to a specified agent on a specified
// machine. Briefcase arguments: HOST (destination site), CONTACT (receiving
// agent), FOLDER (name of the folder to transfer), plus the folder itself.
func agCourier(mc *MeetContext, bc *folder.Briefcase) error {
	host, err := bc.GetString(folder.HostFolder)
	if err != nil {
		return fmt.Errorf("courier: %w", err)
	}
	contact, err := bc.GetString(folder.ContactFolder)
	if err != nil {
		return fmt.Errorf("courier: %w", err)
	}
	name, err := bc.GetString(FolderNameFolder)
	if err != nil {
		return fmt.Errorf("courier: %w", err)
	}
	payload, err := bc.Folder(name)
	if err != nil {
		return fmt.Errorf("courier: no folder %q to deliver: %w", name, err)
	}
	parcel := folder.NewBriefcase()
	parcel.Put(name, payload.Clone())
	parcel.PutString("SENDER", mc.From)
	parcel.PutString("ORIGIN", string(mc.Site.ID()))

	if bc.Has(DetachFolder) {
		site := mc.Site
		site.Go(func() {
			if err := site.remoteMeet(mc.Ctx, vnet.SiteID(host), contact, parcel); err != nil {
				site.Cabinet().AppendString("LOG", "courier: "+err.Error())
			}
		})
		return nil
	}
	if err := mc.Site.remoteMeet(mc.Ctx, vnet.SiteID(host), contact, parcel); err != nil {
		return fmt.Errorf("courier: %w", err)
	}
	// Fold any reply folder back for the sender.
	if reply, err := parcel.Folder(folder.ResultFolder); err == nil {
		bc.Put(folder.ResultFolder, reply.Clone())
	}
	return nil
}

// agDiffusion implements the paper's diffusion agent. At each site it
// executes the CONTACT agent locally, then clones itself at every site in
// the set difference of the site-local SITES folder (the neighbours this
// site knows) and the briefcase SITES folder (sites already covered). A
// site-local visit mark makes termination robust even when concurrent
// clones race along different paths of a cyclic topology — this is the
// paper's flooding example: mark the visit, and terminate rather than
// clone when the site has been seen.
func agDiffusion(mc *MeetContext, bc *folder.Briefcase) error {
	site := mc.Site
	id, err := bc.GetString(DiffIDFolder)
	if err != nil {
		id = newDiffusionID()
		bc.PutString(DiffIDFolder, id)
	}
	if !site.Cabinet().TestAndAppendString("DIFFUSION:"+id, string(site.ID())) {
		return nil // already visited by another clone; terminate
	}

	if contact, err := bc.GetString(folder.ContactFolder); err == nil {
		if err := site.Meet(mc, contact, bc); err != nil {
			bc.Ensure(folder.ErrorFolder).PushString(
				fmt.Sprintf("diffusion at %s: %v", site.ID(), err))
		}
	}

	covered := bc.Ensure(folder.SitesFolder)
	if !covered.ContainsString(string(site.ID())) {
		covered.PushString(string(site.ID()))
	}
	neighbours := site.Cabinet().Snapshot(folder.SitesFolder)
	var next []string
	for _, n := range neighbours.Strings() {
		if !covered.ContainsString(n) {
			next = append(next, n)
			covered.PushString(n)
		}
	}
	for _, dest := range next {
		clone := bc.Clone()
		if err := site.remoteMeet(mc.Ctx, vnet.SiteID(dest), AgDiffusion, clone); err != nil {
			bc.Ensure(folder.ErrorFolder).PushString(
				fmt.Sprintf("diffusion clone to %s: %v", dest, err))
			continue
		}
		// Merge sites covered by the clone's subtree so siblings skip them,
		// and surface any failures its subtree recorded.
		if cs, err := clone.Folder(folder.SitesFolder); err == nil {
			for _, cSite := range cs.Strings() {
				if !covered.ContainsString(cSite) {
					covered.PushString(cSite)
				}
			}
		}
		if ce, err := clone.Folder(folder.ErrorFolder); err == nil && ce.Len() > 0 {
			errs := bc.Ensure(folder.ErrorFolder)
			for _, msg := range ce.Strings() {
				if !errs.ContainsString(msg) {
					errs.PushString(msg)
				}
			}
		}
	}
	return nil
}

func newDiffusionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable and cannot be handled here.
		panic("core: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
