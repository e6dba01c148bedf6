package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 90); got != 7 {
		t.Errorf("single sample p90 = %d, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples p50 = %d, want 0", got)
	}
	// Odd count: the median is the middle sample, not an interpolation.
	if got := percentile([]int64{1, 2, 3, 4, 1000}, 50); got != 3 {
		t.Errorf("p50 of 5 = %d, want 3", got)
	}
}

// TestSelfTimePartition builds one op from two sites: a call from the home
// site spans the remote handler, which holds a guard check and an agent
// whose two children overlap. Self times must follow the deepest-active
// rule and, with the remainder, add up to the op's latency exactly.
func TestSelfTimePartition(t *testing.T) {
	spans := []span{
		{name: rootSpan, op: 7, start: 0, end: 100},
		// Home site: the call carries no op id and is placed by containment.
		{name: spanCall, op: noOp, start: 10, end: 90},
		// Second site: the handler, also unowned, inside the call.
		{name: spanServe, op: noOp, start: 15, end: 85},
		{name: spanArrival, op: 7, start: 16, end: 20},
		{name: spanTacl, op: 7, start: 25, end: 80},
		// Two overlapping children of the activation.
		{name: spanSensor, op: 7, start: 30, end: 50},
		{name: spanGuardMeet, op: 7, start: 40, end: 60},
		// Another op's span, and an unowned span outside every root.
		{name: rootSpan, op: 8, start: 200, end: 300},
		{name: spanSensor, op: 8, start: 210, end: 220},
		{name: spanCall, op: noOp, start: 150, end: 160},
	}
	ops, lost := group(spans)
	if len(ops) != 2 || lost != 1 {
		t.Fatalf("got %d ops and %d lost spans, want 2 and 1", len(ops), lost)
	}
	ot := ops[0]
	if ot.op != 7 || len(ot.spans) != 6 {
		t.Fatalf("op %d has %d spans, want op 7 with 6", ot.op, len(ot.spans))
	}
	ot.analyze()
	self := map[string]int64{}
	parent := map[string]string{}
	var sum int64
	for i, s := range ot.spans {
		self[s.name] = ot.self[i]
		sum += ot.self[i]
		parent[s.name] = rootSpan
		if s.parent >= 0 {
			parent[s.name] = ot.spans[s.parent].name
		}
	}
	want := map[string]int64{
		spanCall:      10, // 10-15 and 85-90
		spanServe:     11, // 15-16, 20-25, 80-85
		spanArrival:   4,
		spanTacl:      25, // 25-30, 60-80
		spanSensor:    10, // 30-40; 40-50 goes to the later-started sibling
		spanGuardMeet: 20, // 40-60
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, self[name], w)
		}
	}
	if ot.unattributed != 20 {
		t.Errorf("unattributed = %d, want 20", ot.unattributed)
	}
	if sum+ot.unattributed != 100 {
		t.Errorf("self times sum to %d, latency is 100", sum+ot.unattributed)
	}
	for name, p := range map[string]string{
		spanCall: rootSpan, spanServe: spanCall, spanArrival: spanServe,
		spanTacl: spanServe, spanSensor: spanTacl, spanGuardMeet: spanTacl,
	} {
		if parent[name] != p {
			t.Errorf("parent(%s) = %s, want %s", name, parent[name], p)
		}
	}
}

// TestSelfTimeOutsideRoot covers a span that outlives its op (a resident
// parks again after the sink meet ends the op): within the op it is
// clipped, over its whole extent it is not.
func TestSelfTimeOutsideRoot(t *testing.T) {
	ops, _ := group([]span{
		{name: rootSpan, op: 1, start: 0, end: 50},
		{name: spanTacl, op: 1, start: 20, end: 90},
		{name: spanSink, op: 1, start: 40, end: 45},
	})
	ot := ops[0]
	ot.analyze()
	if ot.self[0] != 25 || ot.fullSelf[0] != 65 || ot.self[1] != 5 || ot.unattributed != 20 {
		t.Errorf("self %v, full self %v, unattributed %d; want [25 5], [65 5], 20", ot.self, ot.fullSelf, ot.unattributed)
	}
}

// TestContainmentAmbiguous checks that an unowned span inside two
// overlapping roots is not guessed.
func TestContainmentAmbiguous(t *testing.T) {
	ops, lost := group([]span{
		{name: rootSpan, op: 1, start: 0, end: 100},
		{name: rootSpan, op: 2, start: 10, end: 110},
		{name: spanCall, op: noOp, start: 20, end: 30},
	})
	if lost != 1 || len(ops[0].spans)+len(ops[1].spans) != 0 {
		t.Errorf("ambiguous span was attributed (lost=%d)", lost)
	}
}
