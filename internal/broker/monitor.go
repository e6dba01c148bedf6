package broker

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// Monitor is the per-site status agent: it observes its site's load and
// reports it to brokers, either on demand (meet it) or periodically via a
// background pump. Reports carry a monotonically increasing sequence
// number so brokers keep only the freshest value regardless of delivery
// order.
type Monitor struct {
	site *core.Site
	seq  atomic.Int64
	// LoadFn computes the reported load; defaults to the site's running
	// meet count. Experiments override it to model queue lengths.
	LoadFn func() int64
}

// NewMonitor creates a monitor bound to a site and registers it as the
// AgMonitor agent there.
func NewMonitor(site *core.Site) *Monitor {
	m := &Monitor{site: site}
	m.LoadFn = func() int64 { return site.Load() }
	site.Register(AgMonitor, core.AgentFunc(m.meet))
	return m
}

// meet serves an on-demand status query: it fills LOAD and SEQ.
func (m *Monitor) meet(mc *core.MeetContext, bc *folder.Briefcase) error {
	bc.PutString(LoadFolder, strconv.FormatInt(m.LoadFn(), 10))
	bc.PutString(SeqFolder, strconv.FormatInt(m.seq.Add(1), 10))
	bc.PutString(SiteFolder, string(m.site.ID()))
	return nil
}

// ReportTo pushes one load report to the broker agent at brokerSite. The
// report travels like any other agent interaction: a remote meet with the
// broker.
func (m *Monitor) ReportTo(ctx context.Context, brokerSite vnet.SiteID) error {
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "report")
	bc.PutString(SiteFolder, string(m.site.ID()))
	bc.PutString(LoadFolder, strconv.FormatInt(m.LoadFn(), 10))
	bc.PutString(SeqFolder, strconv.FormatInt(m.seq.Add(1), 10))
	if err := m.site.Meet(ctx, AgBroker, bc, core.At(brokerSite)); err != nil {
		return fmt.Errorf("monitor %s: %w", m.site.ID(), err)
	}
	return nil
}

// Pump reports to the broker every period until ctx is cancelled. Failures
// are tolerated: a monitor must outlive transient broker unreachability.
func (m *Monitor) Pump(ctx context.Context, brokerSite vnet.SiteID, period time.Duration) {
	m.site.Go(func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				_ = m.ReportTo(ctx, brokerSite)
			}
		}
	})
}
