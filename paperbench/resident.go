package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/mail"
	"repro/internal/stormcast"
	"repro/internal/vnet"
)

// The resident workload is a site of parked agents woken by mail: 100,000
// idle parked agents, and 1,000 StormCast residents parked on their
// mailboxes. Each op deposits one observation through the mailbox agent;
// the woken resident folds it into its running summary in a cabinet
// folder, meets the benchmark's sink agent, and parks again.
//
// The kernel's park takes its watermark when the agent parks, so a deposit
// landing after the resident's last mailbox read but before its park is
// treated as already seen and waits for the next deposit to that mailbox.
// The resident reports such deposits (LATE) and the run counts them; a
// deposit still unprocessed when the window's drain ends fails.

const (
	residentSite        = "res-0"
	residentCount       = 1000
	idleCount           = 100000
	residentOutstanding = 16
	residentGridW       = 40
	residentGridH       = 25
	sinkAgent           = "sink"
)

// unitSep separates the fields of an encoded mail.Message.
const unitSep = "\x1f"

// residentSrc runs on every wake. It drains its mailbox in order; entries
// below the PARK_WMARK it resumed with were already there when it last
// parked, so they reached it only through a later deposit's wake.
const residentSrc = `set me [bc_get PARK_NAME 0]
set mb MBOX:$me
set sf SUM:$me
set late [bc_get PARK_WMARK 0]
set i 0
while {[cab_len $mb] > 0} {
	set f [split [cab_dequeue $mb] {` + unitSep + `}]
	set obs [split [lindex $f 3] ,]
	set p [lindex $obs 4]
	set w [lindex $obs 5]
	if {[cab_len $sf] > 0} {
		set s [cab_dequeue $sf]
		set s [list [expr {[lindex $s 0] + 1}] [expr {min([lindex $s 1], $p)}] [expr {max([lindex $s 2], $w)}] [lindex $s 3] $p]
	} else {
		set s [list 1 $p $w $p $p]
	}
	cab_append $sf $s
	bc_putlist ` + opFolder + ` [list [lindex $f 2]]
	bc_putlist LATE [list [expr {$i < $late}]]
	bc_putlist OBS [list [lindex $f 3]]
	meet sink
	incr i
}
park $me $mb
`

// idleSrc is the idle population's code; idle agents are never woken.
const idleSrc = `park [bc_get PARK_NAME 0] MBOX:[bc_get PARK_NAME 0]`

// sinkEvent is one observation a resident reported to the sink.
type sinkEvent struct {
	seq  int64
	late bool
	obs  string
	at   time.Time
}

type pendingDeposit struct {
	start    time.Time
	resident int
	obs      string
}

type resident struct {
	site  *core.Site
	model stormcast.Model
	rng   *rand.Rand
	sink  chan sinkEvent

	nextSeq   int64
	pending   map[int64]pendingDeposit
	abandoned map[int64]int // seq -> resident, for deposits a drain gave up on
	// observed holds each resident's observations in deposit order;
	// processed counts how many of them reached the sink.
	observed  [][]stormcast.Observation
	processed []int

	late      int64 // deposits processed only through a later deposit's wake
	stalled   int64 // deposits abandoned at a drain's end, lost to that race
	overflows atomic.Int64
	dupes     int64
	badObs    int64

	tg      *timedGuard
	tacl    *timedAgent
	lateAt  int64 // late count when the traced window opened
	stallAt int64
}

func residentName(i int) string { return "r" + strconv.Itoa(i) }

func newResident(seed int64, _ string) (workload, error) {
	r := &resident{
		model:     stormcast.DefaultModel(residentGridW, residentGridH, seed),
		rng:       rand.New(rand.NewPCG(uint64(seed), 0x5e51)),
		sink:      make(chan sinkEvent, 4096), // far above the deposits that can be in flight
		pending:   map[int64]pendingDeposit{},
		abandoned: map[int64]int{},
		observed:  make([][]stormcast.Observation, residentCount),
		processed: make([]int, residentCount),
	}
	r.site = core.NewSite(vnet.NewNetwork(vnet.WithSeed(seed)).AddNode(residentSite), core.SiteConfig{Seed: seed})
	mail.InstallMailbox(r.site)
	r.site.Register(sinkAgent, core.AgentFunc(r.sinkMeet))
	for i := 0; i < idleCount; i++ {
		name := "idle" + strconv.Itoa(i)
		bc := folder.NewBriefcase()
		bc.Put(folder.CodeFolder, folder.OfStrings(idleSrc))
		if err := r.site.Park(name, "MBOX:"+name, bc); err != nil {
			return nil, err
		}
	}
	for i := 0; i < residentCount; i++ {
		name := residentName(i)
		bc := folder.NewBriefcase()
		bc.Put(folder.CodeFolder, folder.OfStrings(residentSrc))
		if err := r.site.Park(name, "MBOX:"+name, bc); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// sinkMeet receives one processed observation. It never blocks the
// scheduler worker it runs on; a full channel is counted as a failure.
func (r *resident) sinkMeet(mc *core.MeetContext, bc *folder.Briefcase) error {
	at := time.Now()
	seq := briefcaseOp(bc)
	if seq == noOp {
		return fmt.Errorf("sink: no %s folder", opFolder)
	}
	late, _ := bc.GetString("LATE")
	obs, _ := bc.GetString("OBS")
	select {
	case r.sink <- sinkEvent{seq: seq, late: late == "1", obs: obs, at: at}:
	default:
		r.overflows.Add(1)
	}
	return nil
}

func (r *resident) clients(bool) int { return 1 }

func (r *resident) settle() error {
	r.site.Wait()
	return nil
}

// deposit sends one op: a seed-drawn resident receives its next
// observation through the mailbox agent.
func (r *resident) deposit(w *window) {
	i := r.rng.IntN(residentCount)
	name := residentName(i)
	t := len(r.observed[i])
	o := r.model.Observe(name, i%residentGridW, i/residentGridW, t)
	seq := r.nextSeq
	r.nextSeq++
	w.attempted++
	msg := mail.Message{
		From:    "bench@" + residentSite,
		To:      name + "@" + residentSite,
		Subject: strconv.FormatInt(seq, 10),
		Body:    o.Encode(),
	}
	bc := folder.NewBriefcase()
	bc.PutString(mail.OpFolder, "deposit")
	bc.PutString(mail.UserFolder, name)
	bc.PutString(mail.MsgFolder, msg.Encode())
	bc.PutString(opFolder, msg.Subject)
	start := time.Now()
	if err := r.site.Meet(context.Background(), mail.AgMailbox, bc); err != nil {
		w.fail(fmt.Errorf("deposit %d: %w", seq, err))
		return
	}
	parsed, err := stormcast.ParseObservation(msg.Body)
	if err != nil {
		w.fail(err)
		return
	}
	r.observed[i] = append(r.observed[i], parsed)
	r.pending[seq] = pendingDeposit{start: start, resident: i, obs: msg.Body}
}

// loop keeps residentOutstanding deposits in flight from one goroutine and
// completes them in whatever order the sink reports them.
func (r *resident) loop(w *window, deadline time.Time, maxOps int64, _ int) {
	clock := newLoopClock(deadline, maxOps)
	defer clock.stop()
	for {
		for len(r.pending) < residentOutstanding && clock.sending() {
			clock.sent++
			r.deposit(w)
		}
		if len(r.pending) == 0 {
			return
		}
		select {
		case ev := <-r.sink:
			r.complete(w, ev)
		case <-clock.arm():
			if clock.drained() {
				r.abandon(w)
				return
			}
		}
	}
}

// abandon fails the deposits a drain gave up on, counting those the park
// watermark race explains.
func (r *resident) abandon(w *window) {
	for seq, p := range r.pending {
		w.fail(fmt.Errorf("deposit %d: not processed %v after the window", seq, drainTimeout))
		if r.lostWake(p.resident) {
			w.explained++
			r.stalled++
		}
		r.abandoned[seq] = p.resident
		delete(r.pending, seq)
	}
}

// lostWake reports whether resident i shows the park watermark race: it
// is parked, its continuation's watermark counts mailbox entries it never
// read, and those entries are still waiting.
func (r *resident) lostWake(i int) bool {
	name := residentName(i)
	enc, err := r.site.Cabinet().Snapshot(core.ParkedFolder(name)).At(2)
	if err != nil {
		return false
	}
	bc, err := folder.DecodeBriefcase(enc)
	if err != nil {
		return false
	}
	wmark, err := bc.GetString(core.ParkWmarkFolder)
	if err != nil {
		return false
	}
	n, err := strconv.Atoi(wmark)
	return err == nil && n > 0 && r.site.IsParked(name) && r.site.Cabinet().FolderLen("MBOX:"+name) >= n
}

// complete checks one sink report: the deposit must be outstanding (or
// abandoned by an earlier drain) and carry the observation deposited.
func (r *resident) complete(w *window, ev sinkEvent) {
	p, ok := r.pending[ev.seq]
	if !ok {
		if i, ok := r.abandoned[ev.seq]; ok {
			delete(r.abandoned, ev.seq)
			r.processed[i]++
			return
		}
		r.dupes++
		return
	}
	delete(r.pending, ev.seq)
	r.processed[p.resident]++
	if ev.late {
		r.late++
	}
	if ev.obs != p.obs {
		r.badObs++
		w.fail(fmt.Errorf("deposit %d: sink saw %q, deposited %q", ev.seq, ev.obs, p.obs))
		return
	}
	if w.tr != nil {
		w.tr.add(rootSpan, ev.seq, w.tr.stamp(p.start), w.tr.stamp(ev.at))
	}
	w.done(ev.at.Sub(p.start), ev.at)
}

func (r *resident) trace(tr *tracer) {
	// A guard wrapper with no guard inside admits everything and counts
	// the TacL steps the residents run.
	r.tg = &timedGuard{tr: tr}
	r.site.SetGuard(r.tg)
	wrapAgent(r.site, mail.AgMailbox, spanDeposit, tr, briefcaseOp)
	wrapAgent(r.site, sinkAgent, spanSink, tr, briefcaseOp)
	r.tacl = wrapAgent(r.site, core.AgTacl, spanTacl, tr, r.headOp)
	r.lateAt, r.stallAt = r.late, r.stalled
}

// headOp attributes a resident's activation to the deposit at the head of
// its mailbox, the first one it will process.
func (r *resident) headOp(bc *folder.Briefcase) int64 {
	name, err := bc.GetString(core.ParkNameFolder)
	if err != nil {
		return noOp
	}
	head := r.site.Cabinet().Snapshot("MBOX:" + name)
	if head.Len() == 0 {
		return noOp
	}
	raw, _ := head.StringAt(0)
	m, err := mail.ParseMessage(raw)
	if err != nil {
		return noOp
	}
	seq, err := strconv.ParseInt(m.Subject, 10, 64)
	if err != nil {
		return noOp
	}
	return seq
}

func (r *resident) counters() map[string]float64 {
	st := r.site.Scheduler().Stats()
	c := map[string]float64{
		"sched.steals":    float64(st.Steals),
		"sched.submitted": float64(st.Submitted),
	}
	if r.tg != nil {
		c["tacl.steps"] = float64(r.tg.steps.Load())
		c["tacl.activations"] = float64(r.tacl.calls.Load())
	}
	return c
}

// synthesize adds each op's scheduler wait: from the end of its deposit to
// the start of the activation that processed it.
func (r *resident) synthesize(spans []span) []span {
	depEnd := map[int64]int64{}
	for _, s := range spans {
		if s.name == spanDeposit {
			depEnd[s.op] = s.end
		}
	}
	for _, s := range spans {
		if s.name != spanTacl {
			continue
		}
		if end, ok := depEnd[s.op]; ok && s.start >= end {
			spans = append(spans, span{name: spanQueue, op: s.op, start: end, end: s.start})
		}
	}
	return spans
}

func (r *resident) layers(m map[string]float64) {
	var total int
	for i := 0; i < residentCount; i++ {
		total += len(folder.EncodeFolder(r.site.Cabinet().Snapshot(core.ParkedFolder(residentName(i)))))
	}
	m["core.park.cont_bytes"] = float64(total) / residentCount
	m["core.park.late_wakes"] = float64(r.late - r.lateAt + r.stalled - r.stallAt)
}

// finish quiesces the site and checks the run's outputs: no deposit
// reached the sink twice or with the wrong observation, the whole
// population is parked again, and each resident's cabinet summary equals
// the summary of the observations it processed, computed directly.
func (r *resident) finish() error {
	r.site.Wait()
	for {
		select {
		case ev := <-r.sink:
			r.complete(&window{}, ev)
			continue
		default:
		}
		break
	}
	if r.dupes > 0 || r.overflows.Load() > 0 || r.badObs > 0 {
		return fmt.Errorf("sink saw %d duplicate or unknown deposits, %d wrong observations, dropped %d reports", r.dupes, r.badObs, r.overflows.Load())
	}
	if n := r.site.ParkedCount(); n != idleCount+residentCount {
		return fmt.Errorf("%d agents parked, want %d", n, idleCount+residentCount)
	}
	for i := 0; i < residentCount; i++ {
		if err := r.checkSummary(i); err != nil {
			return err
		}
	}
	return nil
}

// checkSummary compares resident i's cabinet summary, a list of count,
// minimum pressure, maximum wind, first and last pressure, with
// stormcast.Summarize over the observations it processed.
func (r *resident) checkSummary(i int) error {
	name := residentName(i)
	n := r.processed[i]
	sf := r.site.Cabinet().Snapshot("SUM:" + name)
	if n == 0 {
		if sf.Len() != 0 {
			return fmt.Errorf("%s has a summary but processed nothing", name)
		}
		return nil
	}
	raw, err := sf.StringAt(0)
	if err != nil || sf.Len() != 1 {
		return fmt.Errorf("%s: summary folder holds %d elements", name, sf.Len())
	}
	f := strings.Fields(raw)
	if len(f) != 5 {
		return fmt.Errorf("%s: malformed summary %q", name, raw)
	}
	var v [5]float64
	for k, s := range f {
		if v[k], err = strconv.ParseFloat(s, 64); err != nil {
			return fmt.Errorf("%s: malformed summary %q", name, raw)
		}
	}
	obs := r.observed[i][:n]
	want := stormcast.Summarize(name, i%residentGridW, i/residentGridW, obs)
	falling := v[4] < v[3]
	if int(v[0]) != n || v[1] != want.MinPressure || v[2] != want.MaxWind || (n >= 2 && falling != want.Falling) {
		return fmt.Errorf("%s: summary %q, want %d observations with min pressure %.2f, max wind %.2f, falling %v",
			name, raw, n, want.MinPressure, want.MaxWind, want.Falling)
	}
	return nil
}

func (r *resident) info() string {
	return fmt.Sprintf("outstanding=%d parked=%d late_wakes=%d stalled_deposits=%d",
		residentOutstanding, r.site.ParkedCount(), r.late, r.stalled)
}

func (r *resident) close() { r.site.Wait() }
