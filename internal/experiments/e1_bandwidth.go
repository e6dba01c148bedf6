// Package experiments implements the measurement programs behind
// EXPERIMENTS.md. The paper is a position paper without numbered tables or
// figures; each of its qualitative claims is reproduced here as a measured
// experiment (E1..E10 in DESIGN.md). The same code backs the root
// benchmarks and cmd/experiments, which prints the result tables.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// E1: "applications can be constructed in which communication-network
// bandwidth is conserved. Data may be accessed only by an agent executing
// at the same site as the data resides. An agent typically will filter or
// otherwise reduce the data it reads, carrying with it only the relevant
// information" (§1). We place M records of R bytes at each of N sites,
// with a fraction s matching a needle, and compare a roaming filter agent
// against a client that pulls raw data.

// E1Row is one parameter point of the bandwidth experiment.
type E1Row struct {
	Sites       int
	Records     int
	RecordBytes int
	Selectivity float64
	AgentBytes  int64
	ClientBytes int64
	Matches     int
}

// Ratio is client-server bytes over agent bytes (>1 means the agent wins).
func (r E1Row) Ratio() float64 {
	if r.AgentBytes == 0 {
		return 0
	}
	return float64(r.ClientBytes) / float64(r.AgentBytes)
}

// E1Workload builds N sites whose cabinets hold M records of R bytes;
// a fraction sel of the records contain the needle "STORM".
type E1Workload struct {
	Sys    *core.System
	Home   *core.Site
	Stores []vnet.SiteID
}

const e1Needle = "STORM"

// NewE1Workload deploys the record stores and the two access strategies'
// service agents.
func NewE1Workload(sites, records, recordBytes int, sel float64, seed int64) *E1Workload {
	sys := core.NewSystem(sites+1, core.SystemConfig{Seed: seed})
	w := &E1Workload{Sys: sys, Home: sys.SiteAt(0)}
	for i := 1; i <= sites; i++ {
		site := sys.SiteAt(i)
		w.Stores = append(w.Stores, site.ID())
		every := 0
		if sel > 0 {
			every = int(1 / sel)
		}
		for r := 0; r < records; r++ {
			rec := strings.Repeat("x", recordBytes)
			if every > 0 && r%every == 0 {
				rec = e1Needle + rec[len(e1Needle):]
			}
			site.Cabinet().AppendString("DATA", fmt.Sprintf("%03d:%s", r, rec))
		}
		// "store" serves raw records; "grep" filters at the data's site.
		site.Register("store", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
			out := bc.Ensure("RAW")
			for _, rec := range mc.Site.Cabinet().Snapshot("DATA").Strings() {
				out.PushString(rec)
			}
			return nil
		}))
		site.Register("grep", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
			out := bc.Ensure("MATCHES")
			for _, rec := range mc.Site.Cabinet().Snapshot("DATA").Strings() {
				if strings.Contains(rec, e1Needle) {
					out.PushString(rec)
				}
			}
			return nil
		}))
	}
	return w
}

// filterAgent roams the stores meeting the local grep service, then the
// chain unwinds home with only the matches.
const filterAgentScript = `
	meet grep
	if {[bc_len ITIN] > 0} {
		jump [bc_dequeue ITIN]
	}
`

// RunAgent performs the query with a roaming agent and returns matches.
func (w *E1Workload) RunAgent(ctx context.Context) (int, error) {
	bc := folder.NewBriefcase()
	itin := folder.New()
	for _, s := range w.Stores[1:] {
		itin.PushString(string(s))
	}
	bc.Put("ITIN", itin)
	bc.Ensure(folder.CodeFolder).PushString(filterAgentScript)
	if err := w.Home.Meet(ctx, core.AgTacl, bc, core.At(w.Stores[0])); err != nil {
		return 0, err
	}
	m, err := bc.Folder("MATCHES")
	if err != nil {
		return 0, nil
	}
	return m.Len(), nil
}

// RunClient performs the query client-server style: pull all raw records
// home, filter there.
func (w *E1Workload) RunClient(ctx context.Context) (int, error) {
	matches := 0
	for _, s := range w.Stores {
		bc := folder.NewBriefcase()
		if err := w.Home.Meet(ctx, "store", bc, core.At(s)); err != nil {
			return 0, err
		}
		raw, err := bc.Folder("RAW")
		if err != nil {
			continue
		}
		for _, rec := range raw.Strings() {
			if strings.Contains(rec, e1Needle) {
				matches++
			}
		}
	}
	return matches, nil
}

// E1Bandwidth measures one parameter point.
func E1Bandwidth(ctx context.Context, sites, records, recordBytes int, sel float64) (E1Row, error) {
	w := NewE1Workload(sites, records, recordBytes, sel, 1)
	defer w.Sys.Wait()
	row := E1Row{Sites: sites, Records: records, RecordBytes: recordBytes, Selectivity: sel}

	w.Sys.Net.ResetStats()
	agentMatches, err := w.RunAgent(ctx)
	if err != nil {
		return row, fmt.Errorf("e1 agent: %w", err)
	}
	row.AgentBytes = w.Sys.Net.Stats().BytesTotal

	w.Sys.Net.ResetStats()
	clientMatches, err := w.RunClient(ctx)
	if err != nil {
		return row, fmt.Errorf("e1 client: %w", err)
	}
	row.ClientBytes = w.Sys.Net.Stats().BytesTotal

	if agentMatches != clientMatches {
		return row, fmt.Errorf("e1: strategies disagree: agent=%d client=%d", agentMatches, clientMatches)
	}
	row.Matches = agentMatches
	return row, nil
}

// E1Sweep runs the standard parameter sweep: record sizes at fixed
// selectivity, then selectivities at fixed record size.
func E1Sweep(ctx context.Context) ([]E1Row, error) {
	var rows []E1Row
	for _, rb := range []int{64, 256, 1024, 4096} {
		row, err := E1Bandwidth(ctx, 8, 50, rb, 0.05)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, sel := range []float64{0.01, 0.1, 0.5} {
		row, err := E1Bandwidth(ctx, 8, 50, 1024, sel)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
