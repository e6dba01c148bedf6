package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs each workload briefly, untraced and then traced,
// with its output checks on, and checks that the traced ops' self times
// partition their latencies.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"itinerary", "courier", "resident"} {
		t.Run(name, func(t *testing.T) {
			wl, err := workloads[name](3, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer wl.close()
			w := &window{start: time.Now()}
			wl.loop(w, time.Now().Add(time.Minute), 300, wl.clients(false))
			tr := newTracer()
			wl.trace(tr)
			tw := &window{tr: tr, start: time.Now()}
			tr.on.Store(true)
			wl.loop(tw, time.Now().Add(time.Minute), 100, wl.clients(true))
			tr.on.Store(false)
			if err := wl.finish(); err != nil {
				t.Fatalf("output check: %v", err)
			}
			// Only deposits lost to the park watermark race may fail.
			failed := w.failed - w.explained + tw.failed - tw.explained
			if failed != 0 || len(w.lats) == 0 || len(tw.lats) == 0 {
				t.Fatalf("%d unexplained failures (first: %v, %v); %d and %d ops completed",
					failed, w.firstErr, tw.firstErr, len(w.lats), len(tw.lats))
			}
			ops, lost := group(wl.synthesize(tr.spans))
			if lost != 0 || len(ops) != len(tw.lats) {
				t.Fatalf("%d traced ops and %d unowned spans for %d completed ops", len(ops), lost, len(tw.lats))
			}
			for _, ot := range ops {
				ot.analyze()
				sum := ot.unattributed
				for _, s := range ot.self {
					sum += s
				}
				if sum != ot.root.end-ot.root.start {
					t.Fatalf("op %d: self times sum to %d, latency %d", ot.op, sum, ot.root.end-ot.root.start)
				}
				if len(ot.spans) == 0 {
					t.Fatalf("op %d has no layer spans", ot.op)
				}
			}
		})
	}
}

// TestSameSeedSameInputs checks that a workload's input stream is a
// function of the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed int64) []int64 {
		wl, err := newCourier(seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer wl.close()
		c := wl.(*courier)
		var out []int64
		for i := 0; i < 16; i++ {
			out = append(out, int64(c.rng.IntN(courierBoxes)))
		}
		return out
	}
	a, b, other := draw(5), draw(5), draw(6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 5 drew %v then %v", a, b)
		}
	}
	same := true
	for i := range a {
		same = same && a[i] == other[i]
	}
	if same {
		t.Fatalf("seeds 5 and 6 drew the same mailboxes %v", a)
	}
}

// TestRunTracedPrintsEveryLayer runs the traced command path once and
// checks it reports every per-layer metric.
func TestRunTracedPrintsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-second traced window")
	}
	dir := t.TempDir()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := runTraced("itinerary", newItinerary, 1, dir, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, pl := range perLayer {
		if _, ok := res.Metrics[pl.name]; !ok {
			t.Errorf("missing %s", pl.name)
		}
	}
	if got := res.Metrics["tacl.activations_per_op"].Value; got != 4 {
		t.Errorf("tacl.activations_per_op = %v, want 4", got)
	}
	if got := res.Metrics["vnet.calls_per_op"].Value; got < 4 {
		t.Errorf("vnet.calls_per_op = %v, want at least 4", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the command lacks", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
}
