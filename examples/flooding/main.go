// Flooding: section 2's motivating example for site-local folders.
//
// Delivering a message at all sites by cloning agents at every neighbour
// grows the agent population without bound on cyclic topologies. If each
// agent instead records its visit in a site-local folder and terminates
// when the site has been seen, the flood stops after exactly one
// activation per site. This example runs both variants on a ring and
// prints the activation counts; the diffusion system agent is the
// well-behaved version packaged as a service. Run with:
//
//	go run ./examples/flooding
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/folder"
)

// naiveFlood clones itself to every neighbour unconditionally; a TTL keeps
// the demonstration finite (without it the flood never terminates on a
// cycle).
const naiveFlood = `
	cab_append DELIVERED msg
	set ttl [bc_pop TTL]
	if {$ttl > 0} {
		foreach n [neighbors] {
			bc_push TTL [expr {$ttl - 1}]
			spawn $n
			bc_pop TTL
		}
	}
`

// markingFlood is the paper's fix: record the visit in a site-local
// folder and terminate (instead of cloning) when the site was already
// visited.
const markingFlood = `
	if {[cab_visit VISITED msg]} {
		cab_append DELIVERED msg
		foreach n [neighbors] {
			spawn $n
		}
	}
`

func runFlood(script string, n, ttl int) (activations int64, delivered int, duplicates int) {
	sys := core.NewSystem(n, core.SystemConfig{Seed: 1})
	sys.Ring()
	bc := folder.NewBriefcase()
	if ttl > 0 {
		bc.PutString("TTL", fmt.Sprint(ttl))
	}
	if _, err := core.RunScript(context.Background(), sys.SiteAt(0), script, bc); err != nil {
		log.Fatalf("flood: %v", err)
	}
	sys.Wait()
	for i := 0; i < sys.Len(); i++ {
		d := sys.SiteAt(i).Cabinet().FolderLen("DELIVERED")
		if d > 0 {
			delivered++
		}
		if d > 1 {
			duplicates += d - 1
		}
	}
	return sys.TotalActivations(), delivered, duplicates
}

func main() {
	const n = 8
	fmt.Printf("ring of %d sites\n\n", n)
	fmt.Printf("%-22s  %-12s  %-10s  %-10s\n", "variant", "activations", "delivered", "duplicates")

	for _, ttl := range []int{4, 6, 8} {
		a, d, dup := runFlood(naiveFlood, n, ttl)
		fmt.Printf("naive clone (ttl=%d)     %-12d  %-10d  %-10d\n", ttl, a, d, dup)
	}
	a, d, dup := runFlood(markingFlood, n, 0)
	fmt.Printf("%-22s  %-12d  %-10d  %-10d\n", "site-local marking", a, d, dup)

	// The packaged version: the diffusion system agent.
	sys := core.NewSystem(n, core.SystemConfig{Seed: 1})
	sys.Ring()
	sys.Register("deliver", func(s *core.Site) core.Agent {
		return core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
			mc.Site.Cabinet().AppendString("DELIVERED", "msg")
			return nil
		})
	})
	bc := folder.NewBriefcase()
	bc.PutString(folder.ContactFolder, "deliver")
	if err := sys.SiteAt(0).Meet(context.Background(), core.AgDiffusion, bc); err != nil {
		log.Fatal(err)
	}
	sys.Wait()
	covered, _ := bc.Folder(folder.SitesFolder)
	fmt.Printf("%-22s  %-12d  %-10d  %-10d\n", "diffusion agent", sys.TotalActivations(), covered.Len(), 0)
}
