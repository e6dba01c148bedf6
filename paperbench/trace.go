package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Each names the layer a wrapper times, except rootSpan (the
// client's whole op) and the synthesized spans (queue waits, courier meets)
// built from stamps after the run.
const (
	rootSpan      = "op"
	spanCall      = "vnet.call"
	spanServe     = "core.serve"
	spanRexec     = "core.rexec"
	spanMeet      = "core.meet"
	spanArrival   = "guard.arrival"
	spanGuardMeet = "guard.meet"
	spanGuardCab  = "guard.cabinet"
	spanGuardBc   = "guard.briefcase"
	spanGuardStep = "guard.stephook"
	spanGuardBind = "guard.bind"
	spanTacl      = "tacl.activation"
	spanSensor    = "stormcast.sensor"
	spanDeposit   = "mail.deposit"
	spanQueue     = "sched.queue"
	spanSync      = "store.sync"
	spanSink      = "bench.sink"
	spanDeliver   = "bench.deliver"
	markAsync     = "mark.async" // zero-length stamp: a courier meet handed to the scheduler
	noOp          = int64(-1)
)

// span is one timed call into a layer. op is the client op it served, or
// noOp when the wrapper could not see a briefcase; such spans are assigned
// to the op whose root span contains them.
type span struct {
	name       string
	op         int64
	start, end int64 // nanoseconds since the tracer's epoch
	parent     int   // index into the op's span list, -1 for none; set by analysis
}

// tracer keeps spans in memory while a traced window runs. Wrappers consult
// on before timing anything, so an installed wrapper costs an atomic load
// or two while tracing is off.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// stamp converts a wall-clock reading to tracer time.
func (t *tracer) stamp(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(name string, op, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, start: start, end: end, parent: -1})
	t.mu.Unlock()
}

// opTrace is the span set of one op after analysis: its root and the spans
// attributed to it, each with its parent and self time.
type opTrace struct {
	op    int64
	root  span
	spans []span
	// self is each span's time within the root not covered by a deeper
	// span; unattributed is the root's own remainder. Together they
	// partition the root exactly.
	self         []int64
	unattributed int64
	// fullSelf is each span's self time over its whole extent, including
	// any part outside the root (a resident re-parks after its op ends).
	fullSelf []int64
}

// group assigns spans to ops: by op id where the wrapper saw one, else to
// the one root that contains the span in time. It returns the ops in id
// order and the number of unowned spans that no single root contained.
func group(spans []span) ([]*opTrace, int) {
	byOp := make(map[int64]*opTrace)
	var roots []*opTrace
	for _, s := range spans {
		if s.name == rootSpan {
			ot := &opTrace{op: s.op, root: s}
			byOp[s.op] = ot
			roots = append(roots, ot)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].root.start < roots[j].root.start })
	maxEnd := make([]int64, len(roots))
	for j, r := range roots {
		maxEnd[j] = r.root.end
		if j > 0 {
			maxEnd[j] = max(maxEnd[j], maxEnd[j-1])
		}
	}
	lost := 0
	for _, s := range spans {
		if s.name == rootSpan {
			continue
		}
		var ot *opTrace
		if s.op != noOp {
			ot = byOp[s.op]
		} else {
			ot = containing(roots, maxEnd, s)
		}
		if ot == nil {
			lost++
			continue
		}
		ot.spans = append(ot.spans, s)
	}
	ops := make([]*opTrace, 0, len(roots))
	ops = append(ops, roots...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].op < ops[j].op })
	return ops, lost
}

// containing returns the single root whose interval holds s, or nil when
// none or more than one does. roots are sorted by start and maxEnd[j] is the
// latest end among roots[:j+1], which bounds the backward scan.
func containing(roots []*opTrace, maxEnd []int64, s span) *opTrace {
	i := sort.Search(len(roots), func(i int) bool { return roots[i].root.start > s.start })
	var found *opTrace
	for j := i - 1; j >= 0 && maxEnd[j] >= s.end; j-- {
		if roots[j].root.end < s.end {
			continue
		}
		if found != nil {
			return nil
		}
		found = roots[j]
	}
	return found
}

// analyze orders an op's spans, links each to its innermost enclosing span
// and computes self times. Each instant of the root goes to the deepest
// span active at it, the latest-started one among equals, so the self times
// and the remainder always sum to the root's duration, even when sibling
// spans overlap.
func (ot *opTrace) analyze() {
	sp := ot.spans
	sort.SliceStable(sp, func(i, j int) bool {
		if sp[i].start != sp[j].start {
			return sp[i].start < sp[j].start
		}
		return sp[i].end > sp[j].end
	})
	depth := make([]int, len(sp))
	var stack []int
	for i := range sp {
		for len(stack) > 0 {
			top := sp[stack[len(stack)-1]]
			if top.start <= sp[i].start && sp[i].end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		sp[i].parent = -1
		if len(stack) > 0 {
			sp[i].parent = stack[len(stack)-1]
		}
		depth[i] = len(stack)
		stack = append(stack, i)
	}
	ot.self, ot.unattributed = attribute(sp, depth, ot.root.start, ot.root.end)
	lo, hi := ot.root.start, ot.root.end
	for _, s := range sp {
		lo, hi = min(lo, s.start), max(hi, s.end)
	}
	ot.fullSelf, _ = attribute(sp, depth, lo, hi)
}

// attribute splits [lo, hi) among spans (sorted by start) by the
// deepest-active rule and returns each span's share and the time no span
// covers.
func attribute(sp []span, depth []int, lo, hi int64) ([]int64, int64) {
	self := make([]int64, len(sp))
	if hi <= lo {
		return self, 0
	}
	cuts := make([]int64, 0, 2*len(sp)+2)
	cuts = append(cuts, lo, hi)
	for _, s := range sp {
		if s.start > lo && s.start < hi {
			cuts = append(cuts, s.start)
		}
		if s.end > lo && s.end < hi {
			cuts = append(cuts, s.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var rest int64
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if a == b {
			continue
		}
		best := -1
		for i, s := range sp {
			if s.start > a {
				break
			}
			if s.end < b {
				continue
			}
			if best < 0 || depth[i] > depth[best] || depth[i] == depth[best] && s.start >= sp[best].start {
				best = i
			}
		}
		if best < 0 {
			rest += b - a
		} else {
			self[best] += b - a
		}
	}
	return self, rest
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the samples at or below
// it. It returns 0 for no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeSpans writes every analyzed span, one per line: op, name, start and
// end in nanoseconds since the tracer epoch, the parent's name ("op" for
// the root) and the self time within the op.
func writeSpans(path string, ops []*opTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tstart_ns\tend_ns\tparent\tself_ns")
	for _, ot := range ops {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t-\t%d\n", ot.op, rootSpan, ot.root.start, ot.root.end, ot.unattributed)
		for i, s := range ot.spans {
			parent := rootSpan
			if s.parent >= 0 {
				parent = ot.spans[s.parent].name
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%s\t%d\n", ot.op, s.name, s.start, s.end, parent, ot.self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
