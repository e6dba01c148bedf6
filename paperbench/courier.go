package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	tacoma "repro"
	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/vnet"
)

// The courier workload is the paper's courier pattern on a durable cabinet:
// each op is an asynchronous meet with a native deliver agent that appends
// an 8-element batch to one of 64 mailboxes and drains the mailbox back to
// its threshold, so every op both appends and drains. The cabinet is
// write-ahead logged, every meet ends at the WAL's group-commit barrier,
// and a replication follower ships the log in the background.
//
// The WAL and the replica live under the run's directory and are written
// without fdatasync: the run must not touch files outside its checkout, and
// on a disk-backed checkout the sync would measure the disk, not the WAL.

const (
	courierBoxes       = 64
	courierBatch       = 8
	courierElem        = 64
	courierThreshold   = 1024
	courierOutstanding = 16
	courierSite        = "courier-0"
	courierReplica     = "courier-rep"
)

type courierOp struct {
	id    int64
	h     sched.Handle
	start time.Time
}

type courier struct {
	dir     string
	repDir  string
	site    *core.Site
	wal     *store.WAL
	leader  *repl.Leader
	follow  *repl.Follower
	rng     *rand.Rand
	nextOp  int64
	stopped bool
	// finalRepl is the leader's last stats, taken when finish stops it.
	finalRepl repl.LeaderStats

	syncer *timedSyncer

	lagMu   sync.Mutex
	lags    []int64
	lagStop chan struct{}
	lagDone chan struct{}
}

func newCourier(seed int64, dir string) (workload, error) {
	c := &courier{
		dir:    filepath.Join(dir, "wal"),
		repDir: filepath.Join(dir, "replica"),
		rng:    rand.New(rand.NewPCG(uint64(seed), 0xc0c0)),
	}
	// Pre-fill every mailbox to the drain threshold through a first WAL
	// generation, so the measured WAL boots through a recovery replay and
	// the run is in steady state from its first op.
	pcab := folder.NewCabinet()
	pre, err := tacoma.OpenWAL(c.dir, pcab, tacoma.WALOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	fill := rand.New(rand.NewPCG(uint64(seed), 0xf111))
	for b := 0; b < courierBoxes; b++ {
		for j := 0; j < courierThreshold; j++ {
			pcab.Append(courierBox(b), randomElem(fill))
		}
	}
	if err := pre.Close(); err != nil {
		return nil, err
	}

	net := vnet.NewNetwork(vnet.WithSeed(seed))
	cab := folder.NewCabinet()
	if c.wal, err = tacoma.OpenWAL(c.dir, cab, tacoma.WALOptions{NoSync: true}); err != nil {
		return nil, err
	}
	c.syncer = &timedSyncer{inner: c.wal}
	c.site = core.NewSite(net.AddNode(courierSite), core.SiteConfig{Seed: seed, Cabinet: cab, Durable: c.syncer})
	c.site.Register("deliver", core.AgentFunc(deliver))
	fsite := core.NewSite(net.AddNode(courierReplica), core.SiteConfig{
		Admission: func(agent, from string) error { return errors.New("standby") },
	})
	if c.follow, err = repl.NewFollower(fsite, repl.FollowerConfig{Dir: c.repDir, Leader: courierSite, NoSyncReplica: true}); err != nil {
		c.wal.Close()
		return nil, err
	}
	c.leader = repl.StartLeader(c.site.Endpoint(), c.wal, repl.LeaderConfig{Follower: courierReplica})
	return c, nil
}

func courierBox(b int) string { return "MBOX:" + strconv.Itoa(b) }

func randomElem(rng *rand.Rand) []byte {
	e := make([]byte, courierElem)
	for i := 0; i < courierElem; i += 8 {
		v := rng.Uint64()
		for k := 0; k < 8; k++ {
			e[i+k] = byte(v >> (8 * k))
		}
	}
	return e
}

// deliver appends the briefcase's WORK batch to its BOX mailbox and, once
// the mailbox is over the threshold, drains as many of its oldest elements
// as it appended. Draining a fixed count rather than down to the threshold
// keeps every mailbox exactly at the threshold however concurrent meets on
// it interleave.
func deliver(mc *core.MeetContext, bc *folder.Briefcase) error {
	box, err := bc.GetString("BOX")
	if err != nil {
		return err
	}
	work, err := bc.Folder("WORK")
	if err != nil {
		return err
	}
	cab := mc.Site.Cabinet()
	for i := 0; i < work.Len(); i++ {
		cab.Append(box, work.RawAt(i))
	}
	if cab.FolderLen(box) > courierThreshold {
		for i := 0; i < work.Len(); i++ {
			if _, err := cab.Dequeue(box); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *courier) clients(bool) int { return 1 }

// settle waits until the follower has acknowledged the whole log, so the
// heap is measured without a shipment in flight.
func (c *courier) settle() error {
	c.site.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return c.leader.Drain(ctx)
}

// loop keeps courierOutstanding durable meets in flight from one goroutine.
// Completion is awaited oldest first; after each wake every other finished
// handle is collected too, so an op overtaken by a younger one is stamped
// no later than its elder's completion.
func (c *courier) loop(w *window, deadline time.Time, maxOps int64, _ int) {
	clock := newLoopClock(deadline, maxOps)
	defer clock.stop()
	var inflight []*courierOp
	for {
		for len(inflight) < courierOutstanding && clock.sending() {
			clock.sent++
			if op := c.send(w); op != nil {
				inflight = append(inflight, op)
			}
		}
		if len(inflight) == 0 {
			return
		}
		select {
		case <-inflight[0].h.Done():
		case <-clock.arm():
			if clock.drained() {
				for _, op := range inflight {
					w.fail(fmt.Errorf("op %d: not complete %v after the window", op.id, drainTimeout))
				}
				return
			}
			continue
		}
		at := time.Now()
		rest := inflight[:0]
		for _, op := range inflight {
			select {
			case <-op.h.Done():
				c.complete(w, op, at)
			default:
				rest = append(rest, op)
			}
		}
		inflight = rest
	}
}

// send starts one durable meet: a seed-drawn mailbox gets a batch of
// seed-generated elements.
func (c *courier) send(w *window) *courierOp {
	op := &courierOp{id: c.nextOp}
	c.nextOp++
	w.attempted++
	bc := folder.NewBriefcase()
	bc.PutString("BOX", courierBox(c.rng.IntN(courierBoxes)))
	work := folder.New()
	for j := 0; j < courierBatch; j++ {
		work.PushOwned(randomElem(c.rng))
	}
	bc.Put("WORK", work)
	bc.PutString(opFolder, strconv.FormatInt(op.id, 10))
	op.start = time.Now()
	if err := c.site.Meet(context.Background(), "deliver", bc, core.Async(&op.h)); err != nil {
		w.fail(fmt.Errorf("op %d: %w", op.id, err))
		return nil
	}
	if w.tr != nil {
		now := w.tr.now()
		w.tr.add(markAsync, op.id, now, now)
	}
	return op
}

func (c *courier) complete(w *window, op *courierOp, at time.Time) {
	if err := op.h.Err(); err != nil {
		w.fail(fmt.Errorf("op %d: %w", op.id, err))
		return
	}
	if w.tr != nil {
		w.tr.add(rootSpan, op.id, w.tr.stamp(op.start), w.tr.stamp(at))
	}
	w.done(at.Sub(op.start), at)
}

func (c *courier) trace(tr *tracer) {
	wrapAgent(c.site, "deliver", spanDeliver, tr, briefcaseOp)
	c.syncer.tr.Store(tr)
	c.lagStop, c.lagDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.lagDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.lagStop:
				return
			case <-tick.C:
				if tr.on.Load() {
					lag := c.leader.Stats().Lag
					c.lagMu.Lock()
					c.lags = append(c.lags, lag)
					c.lagMu.Unlock()
				}
			}
		}
	}()
}

func (c *courier) counters() map[string]float64 {
	st := c.site.Scheduler().Stats()
	ws := c.wal.Stats()
	ls := c.leader.Stats()
	return map[string]float64{
		"sched.steals":    float64(st.Steals),
		"sched.submitted": float64(st.Submitted),
		"store.records":   float64(ws.Records),
		"store.syncs":     float64(ws.Syncs),
		"repl.shipped":    float64(ls.ShippedBytes),
		"repl.errors":     float64(ls.Errors),
	}
}

// synthesize attributes each commit barrier to its op and adds each op's
// kernel meet span (from its Meet call to the end of its barrier) and scheduler queue
// wait (Async return to deliver start). The kernel runs a depth-0 meet's
// barrier on the goroutine that ran its agent, right after the agent
// returns, so a barrier belongs to the latest deliver that ended before it
// and is not yet claimed; a deliver ending on the other worker inside that
// sub-microsecond gap is the only way to pair them wrongly.
func (c *courier) synthesize(spans []span) []span {
	var delivers, syncs []int
	out := spans[:0]
	async := map[int64]int64{}
	roots := map[int64]int64{}
	for _, s := range spans {
		switch s.name {
		case rootSpan:
			roots[s.op] = s.start
		case markAsync:
			async[s.op] = s.start
			continue
		case spanDeliver:
			delivers = append(delivers, len(out))
		case spanSync:
			syncs = append(syncs, len(out))
		}
		out = append(out, s)
	}
	sort.Slice(delivers, func(i, j int) bool { return out[delivers[i]].end < out[delivers[j]].end })
	sort.Slice(syncs, func(i, j int) bool { return out[syncs[i]].start < out[syncs[j]].start })
	var unclaimed []int
	next := 0
	for _, si := range syncs {
		for next < len(delivers) && out[delivers[next]].end <= out[si].start {
			unclaimed = append(unclaimed, delivers[next])
			next++
		}
		if len(unclaimed) == 0 {
			continue
		}
		d := out[unclaimed[len(unclaimed)-1]]
		unclaimed = unclaimed[:len(unclaimed)-1]
		out[si].op = d.op
		if a, ok := async[d.op]; ok && d.start >= a {
			out = append(out, span{name: spanQueue, op: d.op, start: a, end: d.start})
		}
		if r, ok := roots[d.op]; ok {
			out = append(out, span{name: spanMeet, op: d.op, start: r, end: out[si].end})
		}
	}
	return out
}

// layers adds the replication lag sampled during the traced window.
func (c *courier) layers(m map[string]float64) {
	c.lagMu.Lock()
	m["repl.lag_bytes_p90"] = float64(percentile(sortedCopy(c.lags), 90))
	c.lagMu.Unlock()
}

// finish drains replication, then checks durability end to end: the WAL
// directory and the follower's replica directory must each recover into a
// cabinet equal to the live one, and every mailbox must sit at the
// threshold.
func (c *courier) finish() error {
	c.site.Wait()
	c.stopLag()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.leader.Drain(ctx); err != nil {
		return fmt.Errorf("draining the follower: %w", err)
	}
	c.finalRepl = c.leader.Stats()
	c.leader.Stop()
	c.stopped = true
	live := c.site.Cabinet().SnapshotAll(nil)
	for b := 0; b < courierBoxes; b++ {
		if n := live.Lookup(courierBox(b)).Len(); n != courierThreshold {
			return fmt.Errorf("%s holds %d elements, want %d", courierBox(b), n, courierThreshold)
		}
	}
	if err := c.wal.Close(); err != nil {
		return fmt.Errorf("closing the WAL: %w", err)
	}
	if err := c.follow.Close(); err != nil {
		return fmt.Errorf("closing the follower: %w", err)
	}
	for _, d := range []string{c.dir, c.repDir} {
		cab := folder.NewCabinet()
		w, err := tacoma.OpenWAL(d, cab, tacoma.WALOptions{NoSync: true})
		if err != nil {
			return fmt.Errorf("recovering %s: %w", filepath.Base(d), err)
		}
		got := cab.SnapshotAll(nil)
		w.Close()
		if !got.Equal(live) {
			return fmt.Errorf("%s recovers %d folders that differ from the live cabinet's %d", filepath.Base(d), got.Len(), live.Len())
		}
	}
	return nil
}

func (c *courier) stopLag() {
	if c.lagStop != nil {
		close(c.lagStop)
		<-c.lagDone
		c.lagStop = nil
	}
}

func (c *courier) info() string {
	ws := c.wal.Stats()
	ls := c.finalRepl
	if !c.stopped {
		ls = c.leader.Stats()
	}
	return fmt.Sprintf("outstanding=%d wal_sync=off wal_records=%d wal_syncs=%d wal_batch_hist=%q repl_shipped_bytes=%d repl_errors=%d",
		courierOutstanding, ws.Records, ws.Syncs, ws.FormatBatchHist(), ls.ShippedBytes, ls.Errors)
}

func (c *courier) close() {
	c.stopLag()
	if !c.stopped {
		c.site.Wait()
		c.leader.Stop()
		c.wal.Close()
		c.follow.Close()
	}
}
