package main

import (
	"fmt"
	"time"

	"repro/internal/pubsub"
	"repro/internal/topology"
	"repro/internal/transport"
)

// tcpLine is the 3-broker loopback-TCP line 0–1–2 with production
// transport options.
type tcpLine [3]*transport.Node

func newTCPLine() (tcpLine, error) {
	var l tcpLine
	for i := range l {
		n, err := transport.NewNodeWith(topology.NodeID(i), "127.0.0.1:0", transport.Options{})
		if err != nil {
			l.close()
			return l, fmt.Errorf("node %d: %w", i, err)
		}
		l[i] = n
	}
	l[0].Connect(1, l[1].Addr())
	l[1].Connect(0, l[0].Addr())
	l[1].Connect(2, l[2].Addr())
	l[2].Connect(1, l[1].Addr())
	return l, nil
}

func (l tcpLine) close() {
	for _, n := range l {
		if n != nil {
			n.Close() //lint:errdrop teardown of loopback nodes is best-effort
		}
	}
}

// sentBytes sums the pub/sub byte accounting of every node.
func (l tcpLine) sentBytes() (data, control float64) {
	for _, n := range l {
		d, c := n.SentBytes()
		data += d
		control += c
	}
	return data, control
}

// inprocLine is the same line as an in-process pubsub.Network: with unit
// link latencies the minimum spanning tree is 0–1–2.
func inprocLine() (*pubsub.Network, error) {
	g := topology.NewGraph(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		return nil, err
	}
	if err := g.AddEdge(1, 2, 1); err != nil {
		return nil, err
	}
	return pubsub.NewNetwork(topology.NewOracle(g), []topology.NodeID{0, 1, 2})
}

// waitFor polls pred until it holds or timeout passes.
func waitFor(timeout time.Duration, pred func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if pred() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// remoteState returns a broker's count of routing records learned from
// neighbors.
func remoteState(b *pubsub.Broker) int {
	r, _ := b.RoutingStateSize()
	return r
}

// barrier toggles an advertisement of a marker stream at broker from and
// waits until broker to has seen the toggle. Links are FIFO per peer, so
// every control message from sent before the toggle, and everything the
// brokers between sent in response, has been applied at to when it returns.
func barrier(from, to *pubsub.Broker, marker string, timeout time.Duration) bool {
	want := !from.StreamAdvertised(marker)
	if want {
		from.Advertise(marker)
	} else {
		from.Unadvertise(marker)
	}
	return waitFor(timeout, func() bool { return to.StreamAdvertised(marker) == want })
}
