package core

import (
	"context"
	"time"

	"repro/internal/folder"
	"repro/internal/sched"
	"repro/internal/vnet"
)

// Site.Meet(ctx, agent, bc, ...MeetOption) is the kernel's one meet entry
// point. *MeetContext implements context.Context (delegating to its Ctx),
// so the first parameter accepts both a plain context — a client starting a
// computation from outside the agent system, which gets a fresh depth-0
// meet and so the durability barrier — and the MeetContext of a currently
// executing agent, which makes the meet nest: it carries the caller's
// identity and nesting depth and skips the barrier.

// Deadline implements context.Context.
func (mc *MeetContext) Deadline() (time.Time, bool) { return mc.base().Deadline() }

// Done implements context.Context.
func (mc *MeetContext) Done() <-chan struct{} { return mc.base().Done() }

// Err implements context.Context.
func (mc *MeetContext) Err() error { return mc.base().Err() }

// Value implements context.Context.
func (mc *MeetContext) Value(key any) any { return mc.base().Value(key) }

// base returns the underlying cancellation context (Background when the
// MeetContext is nil or carries none).
func (mc *MeetContext) base() context.Context {
	if mc == nil || mc.Ctx == nil {
		return context.Background()
	}
	return mc.Ctx
}

// MeetOption tunes one Meet call; build it with At, Async, or Deadline.
type MeetOption struct {
	dest     vnet.SiteID
	deadline time.Time
	async    *sched.Handle
}

// At directs the meet to the named site: the briefcase travels there, the
// agent executes there, and the mutated briefcase folds back on success. A
// dest equal to the local site (or empty) short-circuits to a local meet.
func At(dest vnet.SiteID) MeetOption { return MeetOption{dest: dest} }

// Async detaches the meet: Meet submits it to the site scheduler and
// returns nil immediately, arming h to report completion (Wait/Done/Err).
// The caller must not touch the briefcase until h completes — the meet
// owns it in the meantime. Asynchronous meets count as site background
// work, so Site.Wait quiesces them. A client's local async meet on a
// durable site completes h only after a durability barrier that began
// once the meet returned, but that barrier is shared: the worker queues
// the finished meet for the site's commit loop and moves on (see
// SetDurable).
func Async(h *sched.Handle) MeetOption { return MeetOption{async: h} }

// Deadline bounds the meet: the cancellation context expires at t. A local
// agent sees the deadline on its MeetContext; for a meet sent At() another
// site it bounds the network exchange (the remote activation starts fresh
// at the destination, as all arrivals do).
func Deadline(t time.Time) MeetOption { return MeetOption{deadline: t} }

// Meet executes the named agent with the briefcase — the paper's "meet B
// with bc". With no options the meet is local and synchronous: the caller
// blocks until the agent terminates the meet; information is exchanged
// through the shared briefcase. Options redirect (At), detach (Async), or
// bound (Deadline) the meet.
//
// ctx is either a plain context.Context (a client entering the agent
// system from outside) or the *MeetContext of the currently executing
// agent, which makes the nested meet carry the caller's identity and
// nesting depth. Passing nil is a fresh client context.
//
// Meeting an agent that is parked at this site does not block: the
// briefcase is deposited in the agent's pending folder, the agent's task
// is enqueued with the scheduler, and the meet returns nil immediately —
// delivery semantics, like mail, rather than rendezvous.
func (s *Site) Meet(ctx context.Context, agent string, bc *folder.Briefcase, opts ...MeetOption) error {
	var o MeetOption
	for _, opt := range opts {
		if opt.dest != "" {
			o.dest = opt.dest
		}
		if !opt.deadline.IsZero() {
			o.deadline = opt.deadline
		}
		if opt.async != nil {
			o.async = opt.async
		}
	}
	if o.dest == s.id {
		o.dest = ""
	}
	if o.dest != "" && bc == nil {
		// The wire path serializes the briefcase; a caller with nothing to
		// send still ships (and discards) an empty one.
		bc = folder.NewBriefcase()
	}
	mc, isMC := ctx.(*MeetContext)
	if mc == nil { // a client context; a typed-nil *MeetContext counts as nil
		if isMC || ctx == nil {
			ctx = context.Background()
		}
		if o.dest != "" && o.async == nil && o.deadline.IsZero() {
			// The common client remote meet goes straight to the wire.
			return s.remoteMeet(ctx, o.dest, agent, bc)
		}
		mc = &MeetContext{Ctx: ctx, commitLater: o.async != nil && o.dest == "" && s.Durable() != nil}
	}
	if o.async == nil && o.deadline.IsZero() {
		return s.meetAt(mc, o.dest, agent, bc)
	}
	var cancel context.CancelFunc = func() {}
	if !o.deadline.IsZero() {
		var dctx context.Context
		dctx, cancel = context.WithDeadline(mc.base(), o.deadline)
		c := *mc
		c.Ctx = dctx
		mc = &c
	}
	h := o.async
	if h == nil {
		defer cancel()
		return s.meetAt(mc, o.dest, agent, bc)
	}
	s.sched.Submit(agent, func() {
		err := s.meetAt(mc, o.dest, agent, bc)
		cancel()
		if mc.commitLater {
			s.queueCommit(h, err)
			return
		}
		h.Complete(err)
	})
	return nil
}

// meetAt runs the meet at dest: over the wire when dest names another
// site, locally when it is empty.
func (s *Site) meetAt(mc *MeetContext, dest vnet.SiteID, agent string, bc *folder.Briefcase) error {
	if dest != "" {
		return s.remoteMeet(mc.base(), dest, agent, bc)
	}
	return s.meet(mc, agent, bc)
}
