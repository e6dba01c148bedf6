package vnet

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// requestWorkers counts goroutines currently inside a request worker.
func requestWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "vnet.(*TCPEndpoint).requestWorker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settle polls cond until it holds or two seconds pass.
func settle(cond func() bool) bool {
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// burst runs n concurrent calls from a to b and fails the test on any error.
func burst(t *testing.T, a *TCPEndpoint, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := a.Call(ctx, "b", "slow", nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func slowHandler(SiteID, string, []byte) ([]byte, error) {
	time.Sleep(20 * time.Millisecond)
	return nil, nil
}

// TestTCPNestedCyclicCallsNeverStarve runs more concurrent itineraries than
// there are parked request workers, each bouncing a → b → a → b before the
// innermost handlers wait for one another. Every handler in every chain is
// in flight at once, so a dispatcher that waited for a free worker (any
// bounded pool) would deadlock here.
func TestTCPNestedCyclicCallsNeverStarve(t *testing.T) {
	a, b := tcpPair(t)
	const callers, depth = 2 * maxParkedWorkers, 3
	var arrived atomic.Int32
	all := make(chan struct{})
	nest := func(self *TCPEndpoint, peer SiteID) HandlerFunc {
		return func(_ SiteID, kind string, payload []byte) ([]byte, error) {
			d, err := strconv.Atoi(string(payload))
			if err != nil {
				return nil, err
			}
			if d == 0 {
				if arrived.Add(1) == callers {
					close(all)
				}
				select {
				case <-all:
					return []byte(self.ID()), nil
				case <-time.After(10 * time.Second):
					return nil, fmt.Errorf("only %d of %d chains reached the bottom", arrived.Load(), callers)
				}
			}
			inner, err := self.Call(context.Background(), peer, kind, []byte(strconv.Itoa(d-1)))
			if err != nil {
				return nil, err
			}
			return append([]byte(string(self.ID())+">"), inner...), nil
		}
	}
	a.SetHandler(nest(a, "b"))
	b.SetHandler(nest(b, "a"))

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			got, err := a.Call(ctx, "b", "nest", []byte(strconv.Itoa(depth)))
			if err == nil && string(got) != "b>a>b>a" {
				err = fmt.Errorf("chain answered %q, want b>a>b>a", got)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPRequestWorkersSettle checks the parked-worker cap: after a burst
// of slow requests, each of which needs its own worker, the endpoint keeps
// at most maxParkedWorkers of them.
func TestTCPRequestWorkersSettle(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(slowHandler)
	if _, err := a.Call(context.Background(), "b", "warm", nil); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	burst(t, a, 4*maxParkedWorkers)

	const slack = 4
	if !settle(func() bool { return runtime.NumGoroutine() <= base+maxParkedWorkers+slack }) {
		t.Fatalf("goroutines did not settle: %d, baseline %d + %d parked + %d slack",
			runtime.NumGoroutine(), base, maxParkedWorkers, slack)
	}
	if n := b.parked.Load(); n > maxParkedWorkers {
		t.Fatalf("%d parked workers, cap %d", n, maxParkedWorkers)
	}
}

// TestTCPCloseRetiresRequestWorkers checks that Close leaves no request
// worker behind, parked or otherwise.
func TestTCPCloseRetiresRequestWorkers(t *testing.T) {
	before := requestWorkers()
	a, b := tcpPair(t)
	b.SetHandler(slowHandler)
	burst(t, a, maxParkedWorkers)
	if requestWorkers() == before {
		t.Fatal("no request worker parked after the burst")
	}

	a.Close()
	b.Close()
	if !settle(func() bool { return requestWorkers() == before }) {
		t.Fatalf("%d request workers left after Close, %d before", requestWorkers(), before)
	}
	if n := b.parked.Load(); n != 0 {
		t.Fatalf("parked count %d after Close", n)
	}
}
