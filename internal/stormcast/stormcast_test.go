package stormcast

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
)

func testField(t *testing.T, w, h int) *Field {
	t.Helper()
	f := NewField(w, h, 7, core.SystemConfig{CallTimeout: 50 * time.Millisecond})
	t.Cleanup(f.Sys.Wait)
	return f
}

func TestObservationEncodeDecode(t *testing.T) {
	m := DefaultModel(4, 4, 1)
	o := m.Observe("site-3", 2, 1, 5)
	back, err := ParseObservation(o.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// Encoding rounds floats to 2 decimals, so compare re-encoded forms:
	// encode∘parse must be idempotent.
	if back.Encode() != o.Encode() {
		t.Fatalf("round trip: %q vs %q", back.Encode(), o.Encode())
	}
	for _, bad := range []string{"", "a,b", "s,x,1,1,1,1,1", "s,1,y,1,1,1,1", "s,1,1,t,1,1,1", "s,1,1,1,p,1,1", "s,1,1,1,1,w,1", "s,1,1,1,1,1,T"} {
		if _, err := ParseObservation(bad); err == nil {
			t.Errorf("ParseObservation(%q) succeeded", bad)
		}
	}
}

func TestSummaryEncodeDecode(t *testing.T) {
	s := Summary{Site: "site-1", X: 2, Y: 3, MinPressure: 985.25, MaxWind: 31.5, Falling: true}
	back, err := ParseSummary(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip: %+v vs %+v", back, s)
	}
	for _, bad := range []string{"", "a,b,c", "s,x,1,1,1,0", "s,1,1,p,1,0"} {
		if _, err := ParseSummary(bad); err == nil {
			t.Errorf("ParseSummary(%q) succeeded", bad)
		}
	}
}

func TestModelDeterministic(t *testing.T) {
	m := DefaultModel(4, 4, 42)
	a := m.Observe("s", 1, 1, 3)
	b := m.Observe("s", 1, 1, 3)
	if a != b {
		t.Fatal("model not deterministic")
	}
	other := DefaultModel(4, 4, 43)
	if m.Observe("s", 1, 1, 3) == other.Observe("s", 1, 1, 3) {
		t.Fatal("seed has no effect")
	}
}

func TestStormSweepsAcrossGrid(t *testing.T) {
	m := DefaultModel(4, 4, 1)
	// Before arrival and long after departure there is no storm; during
	// the crossing there is.
	if m.StormAnywhere(0) {
		t.Fatal("storm present at t=0")
	}
	mid := false
	for tt := 4; tt <= 12; tt++ {
		if m.StormAnywhere(tt) {
			mid = true
		}
	}
	if !mid {
		t.Fatal("storm never crossed the grid")
	}
	if m.StormAnywhere(40) {
		t.Fatal("storm never left")
	}
}

func TestStormSignatureInObservations(t *testing.T) {
	m := DefaultModel(4, 4, 1)
	calm := m.Observe("s", 0, 0, 0)
	// t=8: front at (2,2); cell (2,2) is in the storm.
	stormy := m.Observe("s", 2, 2, 8)
	if !(stormy.Pressure < calm.Pressure-20) {
		t.Fatalf("no pressure drop: calm=%.1f stormy=%.1f", calm.Pressure, stormy.Pressure)
	}
	if !(stormy.Wind > calm.Wind+10) {
		t.Fatalf("no wind rise: calm=%.1f stormy=%.1f", calm.Wind, stormy.Wind)
	}
}

func TestSensorAgentRaw(t *testing.T) {
	f := testField(t, 2, 2)
	bc := coreBC("raw", 5, 3)
	if err := f.Home.Meet(context.Background(), AgSensor, bc, core.At(f.Sites[0])); err != nil {
		t.Fatal(err)
	}
	obs, err := bc.Folder(ObsFolder)
	if err != nil || obs.Len() != 3 {
		t.Fatalf("OBS = %v, %v", obs, err)
	}
	o, err := ParseObservation(obs.Strings()[0])
	if err != nil {
		t.Fatal(err)
	}
	if o.T != 3 { // window [3,5] starts at t-n+1
		t.Fatalf("first obs T = %d", o.T)
	}
}

func TestSensorAgentSummary(t *testing.T) {
	f := testField(t, 2, 2)
	bc := coreBC("summary", 8, 6)
	if err := f.Home.Meet(context.Background(), AgSensor, bc, core.At(f.Sites[3])); err != nil {
		t.Fatal(err)
	}
	sf, err := bc.Folder(SummaryFolder)
	if err != nil || sf.Len() != 1 {
		t.Fatalf("SUMMARY = %v, %v", sf, err)
	}
	if _, err := ParseSummary(sf.Strings()[0]); err != nil {
		t.Fatal(err)
	}
}

func TestSensorAgentErrors(t *testing.T) {
	f := testField(t, 2, 2)
	cases := []func() error{
		func() error { // missing OP
			bc := coreBC("", 1, 1)
			bc.Delete(OpFolder)
			return f.Home.Meet(context.Background(), AgSensor, bc, core.At(f.Sites[0]))
		},
		func() error { // missing T
			bc := coreBC("raw", 1, 1)
			bc.Delete(TimeFolder)
			return f.Home.Meet(context.Background(), AgSensor, bc, core.At(f.Sites[0]))
		},
		func() error { // bad op
			bc := coreBC("explode", 1, 1)
			return f.Home.Meet(context.Background(), AgSensor, bc, core.At(f.Sites[0]))
		},
	}
	for i, c := range cases {
		if err := c(); err == nil {
			t.Errorf("case %d succeeded", i)
		}
	}
}

func TestRoamingEqualsCentralForecast(t *testing.T) {
	f := testField(t, 3, 3)
	expert := DefaultExpert()
	for tt := 0; tt <= 14; tt += 2 {
		r, err := RoamingForecast(context.Background(), f.Home, f.Sites, tt, 6, expert)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CentralForecast(context.Background(), f.Home, f.Sites, tt, 6, expert)
		if err != nil {
			t.Fatal(err)
		}
		if r.Storm != c.Storm {
			t.Fatalf("t=%d: roaming=%v central=%v", tt, r.Storm, c.Storm)
		}
		if len(r.Stormy) != len(c.Stormy) {
			t.Fatalf("t=%d: stormy sets differ: %v vs %v", tt, r.Stormy, c.Stormy)
		}
	}
}

func TestRoamingForecastMovesFewerBytes(t *testing.T) {
	// With a realistic observation window (here ~100 readings per site)
	// the raw data dwarfs the roaming briefcase and filtering at the data
	// site wins. (At tiny windows the crossover flips — see the E9
	// experiment, which sweeps the window size.)
	f := testField(t, 3, 3)
	expert := DefaultExpert()
	ctx := context.Background()
	const window = 100

	f.Sys.Net.ResetStats()
	if _, err := RoamingForecast(ctx, f.Home, f.Sites, 110, window, expert); err != nil {
		t.Fatal(err)
	}
	roamBytes := f.Sys.Net.Stats().BytesTotal

	f.Sys.Net.ResetStats()
	if _, err := CentralForecast(ctx, f.Home, f.Sites, 110, window, expert); err != nil {
		t.Fatal(err)
	}
	centralBytes := f.Sys.Net.Stats().BytesTotal

	if roamBytes >= centralBytes/2 {
		t.Fatalf("agent used %d bytes, client-server %d — filtering at the data site should win clearly",
			roamBytes, centralBytes)
	}
}

func TestForecastDetectsStorm(t *testing.T) {
	f := testField(t, 4, 4)
	expert := DefaultExpert()
	// t=8: front at (2,2), well inside the 4x4 grid.
	fc, err := RoamingForecast(context.Background(), f.Home, f.Sites, 8, 6, expert)
	if err != nil {
		t.Fatal(err)
	}
	if !fc.Storm {
		t.Fatalf("storm at t=8 not detected: %+v", fc)
	}
	// t=0: front far outside.
	fc0, err := RoamingForecast(context.Background(), f.Home, f.Sites, 0, 6, expert)
	if err != nil {
		t.Fatal(err)
	}
	if fc0.Storm {
		t.Fatalf("false alarm at t=0: %+v", fc0)
	}
}

func TestAccuracy(t *testing.T) {
	f := testField(t, 4, 4)
	acc, err := f.Accuracy(context.Background(), 0, 20, 6, DefaultExpert(), RoamingForecast)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("accuracy = %.2f, want >= 0.80", acc)
	}
	if _, err := f.Accuracy(context.Background(), 5, 5, 6, DefaultExpert(), RoamingForecast); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestExpertQuorum(t *testing.T) {
	e := Expert{PressureThreshold: 990, WindThreshold: 25, Quorum: 2}
	mk := func(p, w float64, falling bool) Summary {
		return Summary{MinPressure: p, MaxWind: w, Falling: falling}
	}
	// One stormy site: below quorum.
	fc := e.Predict(0, []Summary{mk(980, 30, true), mk(1010, 5, false)})
	if fc.Storm {
		t.Fatal("quorum of 1 satisfied quorum of 2")
	}
	// Two stormy sites: storm.
	fc = e.Predict(0, []Summary{mk(980, 30, true), mk(985, 10, true), mk(1010, 5, false)})
	if !fc.Storm || len(fc.Stormy) != 2 {
		t.Fatalf("forecast = %+v", fc)
	}
	// Low pressure but rising does not count; high wind alone does.
	fc = e.Predict(0, []Summary{mk(980, 5, false), mk(1010, 30, false)})
	if len(fc.Stormy) != 1 {
		t.Fatalf("rules misfired: %+v", fc)
	}
}

func coreBC(op string, t, window int) *folder.Briefcase {
	b := folder.NewBriefcase()
	if op != "" {
		b.PutString(OpFolder, op)
	}
	b.PutString(TimeFolder, strconv.Itoa(t))
	b.PutString(WindowFolder, strconv.Itoa(window))
	return b
}
