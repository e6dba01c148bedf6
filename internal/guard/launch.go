package guard

import (
	"context"

	"repro/internal/core"
	"repro/internal/folder"
)

// SignedScript prepares a briefcase for a signed roaming TacL agent: the
// script becomes the sole CODE element, home (when non-empty) is recorded
// as the billing return address, and the briefcase is signed under the
// principal's key, covering CODE (and HOME). Because ag_tacl pops the
// script before running it and jump pushes it back before each hop, the
// CODE folder holds exactly this one element whenever the briefcase crosses
// a site boundary — so the one signature stays valid for the whole
// itinerary.
//
// Use Launch (not core.RunScript, which pushes a second CODE copy and would
// break the signature) to start the agent.
func SignedScript(k *Keyring, principal, home, src string, bc *folder.Briefcase) (*folder.Briefcase, error) {
	if bc == nil {
		bc = folder.NewBriefcase()
	}
	if home != "" {
		bc.PutString(HomeFolder, home)
	}
	bc.Put(folder.CodeFolder, folder.OfStrings(src))
	if err := Sign(k, principal, bc); err != nil {
		return nil, err
	}
	return bc, nil
}

// Launch starts a prepared signed agent at a site by meeting ag_tacl with
// its briefcase. It blocks until the agent's computation terminates (or is
// refused/terminated by a guard somewhere along its itinerary).
func Launch(ctx context.Context, s *core.Site, bc *folder.Briefcase) error {
	return s.Meet(ctx, core.AgTacl, bc)
}
