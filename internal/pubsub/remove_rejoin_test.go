package pubsub

import (
	"fmt"
	"testing"

	"repro/internal/stream"
	"repro/internal/topology"
)

// Ungraceful-failure tests: RemoveBroker (crash), FailLink (link loss/flap),
// rejoin via AddBroker, the non-neighbor straggler guards, and the quiesce
// garbage collection of reorder tombstones. The recurring oracle is
// behavioral equivalence with a from-scratch overlay: after repair, probe
// deliveries (and, when the healed topology coincides, routing state sizes)
// match a network that never saw the failure, and teardown still drains to
// empty.

// collectState snapshots (remote, local, own, learned) per broker.
func collectState(net *Network) map[topology.NodeID][4]int {
	out := make(map[topology.NodeID][4]int)
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		remote, local := b.RoutingStateSize()
		own, learned := b.AdvertStateSize()
		out[n] = [4]int{remote, local, own, learned}
	}
	return out
}

// TestRemoveBrokerRepairsAroundGap: crashing a relay broker on the 0-1-2-3
// line splits the tree; the survivors detach the dead link, the components
// re-attach over the cheapest surviving pair, and routing works end to end
// across the repaired overlay without re-issuing any subscription.
func TestRemoveBrokerRepairsAroundGap(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")
	hits := 0
	if err := dst.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}

	if !net.RemoveBroker(1) {
		t.Fatal("RemoveBroker(1) found no broker")
	}
	if net.RemoveBroker(1) {
		t.Fatal("second RemoveBroker(1) should report no broker")
	}
	// The dead node is gone from the membership and from every link.
	for _, n := range net.Nodes() {
		if n == 1 {
			t.Fatal("removed broker still listed")
		}
	}
	for _, link := range net.Links() {
		if link[0] == 1 || link[1] == 1 {
			t.Fatalf("link %v still references the removed broker", link)
		}
	}

	// Repair: {0} and {2,3} re-attach via 0-2 (latency 3, the cheapest
	// surviving cross pair), and the advert resync re-propagates the
	// subscription toward the publisher.
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Fatalf("deliveries after repair = %d, want 1", hits)
	}

	// The healed overlay equals a from-scratch build over the survivors:
	// same MST (0-2, 2-3), same routing and advert state sizes.
	g := topology.NewGraph(4)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	fsrc, _ := fresh.Broker(0)
	fdst, _ := fresh.Broker(3)
	fsrc.Advertise("R")
	fhits := 0
	if err := fdst.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { fhits++ }); err != nil {
		t.Fatal(err)
	}
	healed, scratch := collectState(net), collectState(fresh)
	for n, want := range scratch {
		if healed[n] != want {
			t.Errorf("broker %d state %v differs from from-scratch build %v", n, healed[n], want)
		}
	}

	// Teardown drains the healed overlay to empty.
	dst.Unsubscribe("s")
	src.Unadvertise("R")
	if residual := net.ResidualState(); len(residual) != 0 {
		t.Fatalf("healed overlay did not drain:\n%v", residual)
	}
}

// TestRemoveBrokerPublisherWithdrawsAdverts: crashing the PUBLISHER broker
// withdraws its advertisements at every survivor (no unadvertise was ever
// sent), leaving subscribers holding only their local records.
func TestRemoveBrokerPublisherWithdrawsAdverts(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")
	if err := dst.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}}, nil); err != nil {
		t.Fatal(err)
	}

	if !net.RemoveBroker(0) {
		t.Fatal("RemoveBroker(0) found no broker")
	}
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		own, learned := b.AdvertStateSize()
		if own != 0 || learned != 0 {
			t.Errorf("broker %d still holds advert state own=%d learned=%d after publisher crash", n, own, learned)
		}
		remote, _ := b.RoutingStateSize()
		if remote != 0 {
			t.Errorf("broker %d still records %d remote subscriptions after publisher crash", n, remote)
		}
	}
	dst.Unsubscribe("s")
	if residual := net.ResidualState(); len(residual) != 0 {
		t.Fatalf("survivors did not drain after publisher crash:\n%v", residual)
	}
}

// TestRemoveBrokerRejoinResyncs: a crashed broker rejoining via AddBroker
// resyncs advert state over its attach link and is immediately routable in
// both directions — the crash/rejoin cycle is invisible to probe traffic.
func TestRemoveBrokerRejoinResyncs(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")
	hits := 0
	if err := dst.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}

	net.RemoveBroker(1)
	rejoined := net.AddBroker(1)

	// The rejoined broker learned the advert state of the overlay...
	_, learned := rejoined.AdvertStateSize()
	if learned != 1 {
		t.Fatalf("rejoined broker learned %d adverts, want 1", learned)
	}
	// ...and can subscribe (routing toward it works) while traffic through
	// the healed overlay still reaches the old subscriber.
	rhits := 0
	if err := rejoined.Subscribe(&Subscription{ID: "r", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { rhits++ }); err != nil {
		t.Fatal(err)
	}
	src.Publish(tuple("R", map[string]float64{"a": 2}))
	if hits != 1 || rhits != 1 {
		t.Fatalf("deliveries after rejoin: old=%d rejoined=%d, want 1/1", hits, rhits)
	}

	rejoined.Unsubscribe("r")
	dst.Unsubscribe("s")
	src.Unadvertise("R")
	if residual := net.ResidualState(); len(residual) != 0 {
		t.Fatalf("overlay did not drain after rejoin teardown:\n%v", residual)
	}
}

// TestFailLinkFlap: failing the 1-2 link tears both sides down; the repair
// re-adds the very same link (it is the cheapest cross pair), making the
// flap a full teardown+resync. The flapped overlay is state-identical to a
// from-scratch build and still drains.
func TestFailLinkFlap(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	dst, _ := net.Broker(3)
	src.Advertise("R")
	hits := 0
	if err := dst.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}},
		func(*Subscription, stream.Tuple) { hits++ }); err != nil {
		t.Fatal(err)
	}

	if !net.FailLink(1, 2) {
		t.Fatal("FailLink(1,2) found no link")
	}
	if net.FailLink(0, 3) {
		t.Fatal("FailLink(0,3) is not an overlay link, want false")
	}
	links := net.Links()
	if len(links) != 3 {
		t.Fatalf("flapped overlay has %d links, want 3: %v", len(links), links)
	}

	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits != 1 {
		t.Fatalf("deliveries after flap = %d, want 1", hits)
	}

	// Same topology as the never-flapped build: state sizes must coincide.
	ref := lineNet(t)
	rsrc, _ := ref.Broker(0)
	rdst, _ := ref.Broker(3)
	rsrc.Advertise("R")
	if err := rdst.Subscribe(&Subscription{ID: "s", Streams: []string{"R"}}, nil); err != nil {
		t.Fatal(err)
	}
	flapped, scratch := collectState(net), collectState(ref)
	for n, want := range scratch {
		if flapped[n] != want {
			t.Errorf("broker %d state %v differs from never-flapped build %v", n, flapped[n], want)
		}
	}

	dst.Unsubscribe("s")
	src.Unadvertise("R")
	if residual := net.ResidualState(); len(residual) != 0 {
		t.Fatalf("flapped overlay did not drain:\n%v", residual)
	}
}

// TestDeadLinkStragglersDropped: after a crash, messages the dead link still
// delivers (delayed copies impersonating the removed neighbor) are rejected
// by the non-neighbor guards instead of installing unreachable state.
func TestDeadLinkStragglersDropped(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b2, _ := net.Broker(2)
	src.Advertise("R")
	net.RemoveBroker(1)

	// Stragglers "from 1" land at 0 and 2 after the link died.
	b2.AdvertFrom(1, "S", 1, 9)
	b2.PropagateFrom(&Subscription{ID: "ghost", Seq: 9, Streams: []string{"R"}}, 1)
	b2.RetractFrom(1, "ghost", 9)
	b2.UnadvertFrom(1, "R", 0, 9)
	b2.RouteFrom(tuple("R", map[string]float64{"a": 1}), 1)
	src.PropagateFrom(&Subscription{ID: "ghost2", Seq: 9, Streams: []string{"R"}}, 1)

	if remote, _ := b2.RoutingStateSize(); remote != 0 {
		t.Errorf("straggler subscription recorded: %d remote records", remote)
	}
	if _, learned := b2.AdvertStateSize(); learned != 1 {
		t.Errorf("straggler advert/unadvert mutated advert state: learned=%d, want 1 (R via repair link)", learned)
	}
	src.Unadvertise("R")
	if residual := net.ResidualState(); len(residual) != 0 {
		t.Fatalf("stragglers left residual state:\n%v", residual)
	}
}

// TestTombstonesSurviveDuplicatedStragglers: on a duplicating link, the
// second stale copy of an annihilated advert or tombstoned propagation must
// ALSO be dropped — the tombstone is kept, not consumed by the first copy —
// and Quiesce garbage-collects the tombstones once the link is quiet.
func TestTombstonesSurviveDuplicatedStragglers(t *testing.T) {
	net := lineNet(t)
	src, _ := net.Broker(0)
	b1, _ := net.Broker(1)
	src.Advertise("R")

	// Retraction overtakes the propagation; the propagation then arrives
	// TWICE (duplicated link). Absent the tombstone the copies WOULD
	// install ("R" is advertised via direction 0), and a consume-on-first-
	// copy tombstone would let the second copy through.
	b1.RetractFrom(2, "dup", 5)
	late := &Subscription{ID: "dup", Seq: 5, Streams: []string{"R"}}
	b1.PropagateFrom(late, 2)
	b1.PropagateFrom(late, 2)
	if remote, _ := b1.RoutingStateSize(); remote != 0 {
		t.Fatalf("duplicated stale propagation installed %d records past its retraction", remote)
	}

	// Withdrawal overtakes the advert; the advert arrives twice.
	b1.UnadvertFrom(0, "X", 0, 7)
	b1.AdvertFrom(0, "X", 0, 7)
	b1.AdvertFrom(0, "X", 0, 7)
	if _, learned := b1.AdvertStateSize(); learned != 1 {
		t.Fatalf("duplicated stale advert resurrected entries: learned=%d, want 1 (just R)", learned)
	}

	// After a clean unadvertise the kept tombstones are the only residual
	// state; Quiesce garbage-collects them once the links are quiet.
	src.Unadvertise("R")
	residual := net.ResidualState()
	if len(residual) != 2 {
		t.Fatalf("residual = %v, want exactly the two tombstone entries", residual)
	}
	net.Quiesce()
	if residual := net.ResidualState(); len(residual) != 0 {
		t.Fatalf("Quiesce left residual state:\n%v", residual)
	}

	// Newer epochs still supersede after a quiesce.
	src.Advertise("R")
	b1.PropagateFrom(&Subscription{ID: "dup", Seq: 6, Streams: []string{"R"}}, 2)
	if remote, _ := b1.RoutingStateSize(); remote != 1 {
		t.Fatalf("fresh epoch blocked after quiesce: %d records", remote)
	}
}

// TestRemoveBrokerStarTopology: crashing the hub of a star splits the tree
// into three singleton components; the deterministic re-attach must produce
// one connected overlay and keep every subscriber reachable.
func TestRemoveBrokerStarTopology(t *testing.T) {
	g := topology.NewGraph(4)
	// Star around node 0 with distinct spoke latencies.
	for i := 1; i < 4; i++ {
		if err := g.AddEdge(0, topology.NodeID(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	net, err := NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.Broker(1)
	src.Advertise("R")
	var hits [4]int
	for i := 2; i < 4; i++ {
		b, _ := net.Broker(topology.NodeID(i))
		i := i
		if err := b.Subscribe(&Subscription{ID: fmt.Sprintf("s%d", i), Streams: []string{"R"}},
			func(*Subscription, stream.Tuple) { hits[i]++ }); err != nil {
			t.Fatal(err)
		}
	}

	net.RemoveBroker(0)
	if got := len(net.Links()); got != 2 {
		t.Fatalf("re-attached overlay has %d links, want 2 (spanning tree over 3 nodes)", got)
	}
	src.Publish(tuple("R", map[string]float64{"a": 1}))
	if hits[2] != 1 || hits[3] != 1 {
		t.Fatalf("deliveries after hub crash = %v, want one each at 2 and 3", hits)
	}

	for i := 2; i < 4; i++ {
		b, _ := net.Broker(topology.NodeID(i))
		b.Unsubscribe(fmt.Sprintf("s%d", i))
	}
	src.Unadvertise("R")
	if residual := net.ResidualState(); len(residual) != 0 {
		t.Fatalf("star overlay did not drain after hub crash:\n%v", residual)
	}
}

// TestFreshBrokerDropsNonNeighborData: a broker that never churned already
// routes on a published (empty) epoch, and that epoch's neighbor set — empty
// — rejects data arriving from any direction, while local publishes still
// route.
func TestFreshBrokerDropsNonNeighborData(t *testing.T) {
	b := NewBroker(nil, 0)
	if b.snap.Load() == nil {
		t.Fatal("NewBroker published no matching epoch")
	}
	routed := cRoutedTuples.Value()
	b.RouteFrom(tuple("R", map[string]float64{"a": 1}), 3)
	if got := cRoutedTuples.Value() - routed; got != 0 {
		t.Fatalf("data from non-neighbor 3 was routed (%d tuples), want dropped", got)
	}
	b.Publish(tuple("R", map[string]float64{"a": 1}))
	if got := cRoutedTuples.Value() - routed; got != 1 {
		t.Fatalf("local publish routed %d tuples, want 1", got)
	}
}
