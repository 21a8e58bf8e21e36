package netem

import (
	"runtime"
	"testing"
	"time"

	"excovery/internal/sched"
)

// TestSteadyStateDeliveryAllocatesNothing holds the pooled data path to
// zero allocations: after warm-up, a delivery allocates nothing, with
// capture off (the bare transport) and with capture on, which is what every
// run of a stored campaign executes — the capture record and its path go
// into the node's recycled buffers (DESIGN.md §18). Like a benchmark's
// allocs/op and B/op, the totals over 200 000 deliveries are divided by the
// delivery count and truncated; both must be 0.
func TestSteadyStateDeliveryAllocatesNothing(t *testing.T) {
	const (
		runLen     = 1024
		deliveries = 200_000
	)
	for _, capture := range []bool{false, true} {
		// A two-node handler-driven unicast ping-pong: every delivery
		// Sends the next packet — no tasks, no closures. The captures are
		// cleared every runLen packets, as node.Manager.PrepareRun does
		// between runs.
		s := sched.NewVirtual()
		nw := New(s, 7)
		a := nw.AddNode("a", NodeParams{})
		b := nw.AddNode("b", NodeParams{})
		nw.AddLink("a", "b", LinkParams{Delay: 500 * time.Microsecond, Jitter: 100 * time.Microsecond})
		a.SetCapture(capture)
		b.SetCapture(capture)
		payload := make([]byte, 120)
		remaining := 0
		next := func(from *Node, to NodeID) {
			if remaining > 0 {
				remaining--
				if remaining%runLen == 0 {
					a.ClearCaptures()
					b.ClearCaptures()
				}
				from.Send(Unicast(to), "traffic", payload)
			}
		}
		a.SetHandler(func(p *Packet) { next(a, "b") })
		b.SetHandler(func(p *Packet) { next(b, "a") })
		exchange := func(n int) {
			remaining = n
			s.Go("kick", func() { a.Send(Unicast("b"), "traffic", payload) })
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the packet pool, timer pool, rings, routes and — over two
		// run lengths — the capture buffers.
		exchange(2*runLen + 512)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		exchange(deliveries)
		runtime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("capture=%v: %d allocations, %d B over %d deliveries", capture, allocs, bytes, deliveries)
		if allocs/deliveries != 0 || bytes/deliveries != 0 {
			t.Errorf("capture=%v: %d allocs/op, %d B/op; want 0 and 0",
				capture, allocs/deliveries, bytes/deliveries)
		}
	}
}
