package stormcast

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// Expert is the rule-based storm predictor (the "expert system"). Its
// rules fire on reduced features only, so the roaming and the centralized
// strategies feed it identical inputs.
type Expert struct {
	// PressureThreshold: a site counts as stormy when its window minimum
	// pressure is below this and still falling.
	PressureThreshold float64
	// WindThreshold: or when its window maximum wind exceeds this.
	WindThreshold float64
	// Quorum is how many stormy sites make a storm forecast.
	Quorum int
}

// DefaultExpert matches the DefaultModel's storm signature.
func DefaultExpert() Expert {
	return Expert{PressureThreshold: 992, WindThreshold: 24, Quorum: 2}
}

// Forecast is the expert system's output.
type Forecast struct {
	T      int
	Storm  bool
	Stormy []string // sites whose features crossed the thresholds
}

// Predict applies the rules to a set of site summaries.
func (e Expert) Predict(t int, summaries []Summary) Forecast {
	f := Forecast{T: t}
	for _, s := range summaries {
		lowAndFalling := s.MinPressure < e.PressureThreshold && s.Falling
		windy := s.MaxWind > e.WindThreshold
		if lowAndFalling || windy {
			f.Stormy = append(f.Stormy, s.Site)
		}
	}
	f.Storm = len(f.Stormy) >= e.Quorum
	return f
}

// collectorScript is the roaming StormCast agent: at each sensor site it
// meets the local sensor (which appends a locally reduced summary to the
// briefcase) and then jumps to the next site on its itinerary. Raw
// observations never leave their site.
const collectorScript = `
	meet sensor
	if {[bc_len ITIN] > 0} {
		jump [bc_dequeue ITIN]
	}
`

// RoamingForecast is the agent-structured StormCast: a TacL collector
// agent hops from sensor site to sensor site, meets the local sensor,
// reduces the observation window to a summary *at the data's site*, and
// carries only summaries onward.
func RoamingForecast(ctx context.Context, home *core.Site, sites []vnet.SiteID,
	t, window int, expert Expert) (Forecast, error) {

	if len(sites) == 0 {
		return Forecast{}, fmt.Errorf("stormcast: no sensor sites")
	}
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "summary")
	bc.PutString(TimeFolder, strconv.Itoa(t))
	bc.PutString(WindowFolder, strconv.Itoa(window))
	itin := folder.New()
	for _, site := range sites[1:] {
		itin.PushString(string(site))
	}
	bc.Put("ITIN", itin)
	bc.Ensure(folder.CodeFolder).PushString(collectorScript)
	if err := home.Meet(ctx, core.AgTacl, bc, core.At(sites[0])); err != nil {
		return Forecast{}, fmt.Errorf("stormcast: launching collector: %w", err)
	}
	sf, err := bc.Folder(SummaryFolder)
	if err != nil {
		return Forecast{}, fmt.Errorf("stormcast: no summaries gathered: %w", err)
	}
	summaries := make([]Summary, 0, sf.Len())
	for _, raw := range sf.Strings() {
		s, err := ParseSummary(raw)
		if err != nil {
			return Forecast{}, err
		}
		summaries = append(summaries, s)
	}
	return expert.Predict(t, summaries), nil
}

// CentralForecast is the client-server baseline: the home site pulls every
// sensor's raw observation window over the network and reduces centrally.
// The forecast is identical; the bytes moved are not.
func CentralForecast(ctx context.Context, home *core.Site, sites []vnet.SiteID,
	t, window int, expert Expert) (Forecast, error) {

	var summaries []Summary
	for _, site := range sites {
		bc := folder.NewBriefcase()
		bc.PutString(OpFolder, "raw")
		bc.PutString(TimeFolder, strconv.Itoa(t))
		bc.PutString(WindowFolder, strconv.Itoa(window))
		if err := home.Meet(ctx, AgSensor, bc, core.At(site)); err != nil {
			return Forecast{}, fmt.Errorf("stormcast: central pull from %s: %w", site, err)
		}
		of, err := bc.Folder(ObsFolder)
		if err != nil {
			return Forecast{}, fmt.Errorf("stormcast: no observations from %s: %w", site, err)
		}
		var obs []Observation
		for _, raw := range of.Strings() {
			o, err := ParseObservation(raw)
			if err != nil {
				return Forecast{}, err
			}
			obs = append(obs, o)
		}
		if len(obs) == 0 {
			continue
		}
		summaries = append(summaries, Summarize(string(site), obs[0].X, obs[0].Y, obs))
	}
	return expert.Predict(t, summaries), nil
}

// Field is a deployed sensor grid: one site per cell plus a home site.
type Field struct {
	Sys   *core.System
	Model Model
	Home  *core.Site
	Sites []vnet.SiteID // sensor sites in row-major grid order
}

// NewField builds a w×h sensor grid on a fresh simulated system. Site 0 is
// the home (forecast) site; sites 1..w*h host one sensor each.
func NewField(w, h int, seed int64, cfg core.SystemConfig) *Field {
	cfg.Seed = seed
	sys := core.NewSystem(w*h+1, cfg)
	model := DefaultModel(w, h, seed)
	f := &Field{Sys: sys, Model: model, Home: sys.SiteAt(0)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			site := sys.SiteAt(1 + y*w + x)
			InstallSensor(site, model, x, y)
			f.Sites = append(f.Sites, site.ID())
		}
	}
	return f
}

// Accuracy scores a forecast function against ground truth over timesteps
// [t0, t1), returning the fraction of correct storm/no-storm calls.
func (f *Field) Accuracy(ctx context.Context, t0, t1, window int, expert Expert,
	forecast func(ctx context.Context, home *core.Site, sites []vnet.SiteID, t, window int, e Expert) (Forecast, error),
) (float64, error) {
	if t1 <= t0 {
		return 0, fmt.Errorf("stormcast: empty time range [%d,%d)", t0, t1)
	}
	correct := 0
	for t := t0; t < t1; t++ {
		fc, err := forecast(ctx, f.Home, f.Sites, t, window, expert)
		if err != nil {
			return 0, err
		}
		if fc.Storm == f.Model.StormInWindow(t, window) {
			correct++
		}
	}
	return float64(correct) / float64(t1-t0), nil
}
