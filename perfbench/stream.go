package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/trace"
)

// streamWL is the data-plane workload: node 0 of the TCP line publishes
// reading-shaped tuples on 16 streams to a standing population of pairwise
// non-covering interval subscriptions at nodes 1 and 2. Only transport and
// pub/sub matching work once set-up is done.
type streamWL struct {
	streams, subs1, subs2 int
	rate                  float64 // open-loop tuples per second
	window                int     // closed-loop in-flight tuples, under the 4,096-tuple data queue
	setups                int

	subs  []*pubsub.Subscription
	node  []int          // owning node (1 or 2) of each subscription
	pool  []stream.Tuple // published cyclically; Timestamp carries the sequence number
	hits  [][]int32      // per pool tuple, the subscriptions the in-process replay delivered it to
	cum   []int64        // cum[i] = deliveries expected for pool tuples [0, i)
	route samples        // in-process Broker.Publish durations
	want0 int            // node 0's routing records at the in-process fixpoint

	line      tcpLine
	t0        time.Time
	counts    []atomic.Int64 // deliveries per subscription
	delivered atomic.Int64
	due       []atomic.Int64 // send time of open-loop sequence number openLo+i, ns after t0
	openLo    atomic.Int64   // sequence numbers in [openLo, openHi) are timed
	openHi    atomic.Int64
	published int64
	timeouts  int
	wakeAt    atomic.Int64  // delivery count at which the handler signals wake
	wake      chan struct{} // capacity 1: one pending signal is enough

	mu sync.Mutex  // guards ph.lat and ph.lat1 against the delivery goroutines
	ph streamPhase // the current measure call
}

// streamPhase holds what one measure call observed.
type streamPhase struct {
	lat, lat1, lag samples // all / node-1 deliveries of open-loop tuples; generator lateness
	tuples         int64
	rates          []float64 // closed-loop tuples/s per tputWindow
	queueHW        int
	c0, c1         map[string]int64
	data0, data1   float64 // broker-accounted data bytes, all nodes
	ctl0, ctl1     float64 // broker-accounted control bytes, all nodes
}

func newStreamWL(seed uint64, scale float64, seconds float64) *streamWL {
	w := &streamWL{
		streams: 16,
		subs1:   int(200 * scale),
		subs2:   int(2000 * scale),
		rate:    5000,
		window:  1024,
		setups:  9,
	}
	w.due = make([]atomic.Int64, int(w.rate*seconds)+1024)
	rng := rand.New(rand.NewPCG(seed, 0x57e4))
	// Per stream, staggered equal-width intervals on one attribute: no
	// interval contains another, so no subscription covers another and
	// every one propagates to node 0. Node 2 filters on snowHeight, node 1
	// on windSpeed; half carry a second predicate, half are projected.
	add := func(node, k, perStream int, attr string, lo, span, width float64) {
		i := len(w.subs)
		s := k % w.streams
		j := k / w.streams
		start := lo + span*float64(j)/float64(perStream)
		filters := []query.Predicate{
			pred(attr, query.Ge, start),
			pred(attr, query.Lt, start+width),
		}
		if i%2 == 0 {
			filters = append(filters, pred("temperature", query.Lt, -20+30*rng.Float64()))
		}
		var attrs []string
		if i/2%2 == 0 {
			attrs = []string{"station", attr}
		}
		w.subs = append(w.subs, &pubsub.Subscription{
			ID: fmt.Sprintf("n%d/s%d", node, i), Streams: []string{streamName(s)},
			Attrs: attrs, Filters: filters,
		})
		w.node = append(w.node, node)
	}
	per2 := (w.subs2 + w.streams - 1) / w.streams
	for k := 0; k < w.subs2; k++ {
		add(2, k, per2, "snowHeight", -10, 110, 12)
	}
	per1 := (w.subs1 + w.streams - 1) / w.streams
	for k := 0; k < w.subs1; k++ {
		add(1, k, per1, "windSpeed", -1, 16, 2)
	}
	w.counts = make([]atomic.Int64, len(w.subs))
	w.wake = make(chan struct{}, 1)
	w.pool = make([]stream.Tuple, 8192)
	for i := range w.pool {
		w.pool[i] = stream.Tuple{
			Stream: streamName(rng.IntN(w.streams)),
			Attrs: map[string]stream.Value{
				"station":     stream.IntVal(int64(rng.IntN(100))),
				"sensorType":  stream.StringVal(trace.SensorTypes[rng.IntN(len(trace.SensorTypes))]),
				"snowHeight":  stream.FloatVal(100 * rng.Float64()),
				"temperature": stream.FloatVal(-20 + 30*rng.Float64()),
				"windSpeed":   stream.FloatVal(15 * rng.Float64()),
			},
			Size: 16 + 8*5,
		}
	}
	return w
}

func streamName(s int) string { return fmt.Sprintf("S%02d", s) }

func pred(attr string, op query.Op, v float64) query.Predicate {
	lit := stream.FloatVal(v)
	return query.Predicate{Left: query.Operand{Col: &query.ColRef{Attr: attr}}, Op: op, Right: query.Operand{Lit: &lit}}
}

// replay runs the pool through an in-process network holding the same
// population: the per-tuple delivery lists are the oracle, and the
// replay's Broker.Publish times are the in-process matching cost.
func (w *streamWL) replay(tr *tracer) error {
	net, err := inprocLine()
	if err != nil {
		return err
	}
	b0, _ := net.Broker(0)
	for s := 0; s < w.streams; s++ {
		b0.Advertise(streamName(s))
	}
	var cur []int32
	for i, sub := range w.subs {
		b, _ := net.Broker(topology.NodeID(w.node[i]))
		idx := int32(i)
		if err := subscribe(b, sub, func(*pubsub.Subscription, stream.Tuple) { cur = append(cur, idx) }); err != nil {
			return err
		}
	}
	w.want0 = remoteState(b0)
	w.hits = make([][]int32, len(w.pool))
	w.cum = make([]int64, len(w.pool)+1)
	parent := tr.begin("inproc.replay", -1)
	for i, t := range w.pool {
		cur = cur[:0]
		start := time.Now()
		b0.Publish(t)
		end := time.Now()
		tr.record("inproc.Broker.Publish", parent, start, end)
		w.route.add(end.Sub(start))
		w.hits[i] = append([]int32(nil), cur...)
		w.cum[i+1] = w.cum[i] + int64(len(cur))
	}
	tr.finish(parent)
	return nil
}

// expectedThrough returns the deliveries expected for sequence numbers
// [0, n).
func (w *streamWL) expectedThrough(n int64) int64 {
	p := int64(len(w.pool))
	return (n/p)*w.cum[p] + w.cum[n%p]
}

// setup builds the oracle, untimed, then builds the TCP line and installs
// the population, waiting until node 0 holds the in-process fixpoint. It
// builds the line w.setups times and keeps the last.
func (w *streamWL) setup(tr *tracer) (samples, error) {
	if err := w.replay(tr); err != nil {
		return nil, err
	}
	var took samples
	for r := 0; r < w.setups; r++ {
		if w.line[0] != nil {
			w.line.close()
		}
		start := time.Now()
		line, err := newTCPLine()
		if err != nil {
			return nil, err
		}
		w.line = line
		for s := 0; s < w.streams; s++ {
			line[0].Broker.Advertise(streamName(s))
		}
		// Subscribe once the adverts have arrived, so every subscription
		// propagates as it is made and none waits for a replay.
		if !waitFor(10*time.Second, func() bool { return line[2].Broker.StreamAdvertised(streamName(w.streams - 1)) }) {
			return nil, fmt.Errorf("stream set-up: adverts did not reach node 2")
		}
		for i, sub := range w.subs {
			i := i
			node := w.node[i]
			h := func(_ *pubsub.Subscription, t stream.Tuple) { w.onDelivery(i, node, t) }
			if err := subscribe(line[node].Broker, sub, h); err != nil {
				return nil, err
			}
		}
		if !waitFor(30*time.Second, func() bool { return remoteState(line[0].Broker) == w.want0 }) {
			return nil, fmt.Errorf("stream set-up did not converge: node 0 holds %d of %d records",
				remoteState(line[0].Broker), w.want0)
		}
		took = append(took, time.Since(start).Seconds())
	}
	w.t0 = time.Now()
	return took, nil
}

func (w *streamWL) onDelivery(i, node int, t stream.Tuple) {
	w.counts[i].Add(1)
	if n := w.delivered.Add(1); n == w.wakeAt.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	seq := t.Timestamp
	if seq < w.openLo.Load() || seq >= w.openHi.Load() {
		return
	}
	ms := float64(time.Since(w.t0).Nanoseconds()-w.due[seq-w.openLo.Load()].Load()) / 1e6
	w.mu.Lock()
	w.ph.lat = append(w.ph.lat, ms)
	if node == 1 {
		w.ph.lat1 = append(w.ph.lat1, ms)
	}
	w.mu.Unlock()
}

// publish sends the next tuple; a traced call is recorded as a span.
func (w *streamWL) publish(tr *tracer, parent int32) {
	seq := w.published
	t := w.pool[seq%int64(len(w.pool))]
	t.Timestamp = seq
	start := time.Now()
	w.line[0].Broker.Publish(t)
	tr.record("Broker.Publish", parent, start, time.Now())
	w.published++
	w.ph.tuples++
}

// waitDelivered blocks until n deliveries have arrived. The delivery
// handler wakes it, so the closed loop refills as soon as there is room
// instead of at the granularity of a sleep.
func (w *streamWL) waitDelivered(n int64) {
	w.wakeAt.Store(n)
	for w.delivered.Load() < n {
		select {
		case <-w.wake:
		case <-time.After(100 * time.Millisecond): // deliveries lost: drain counts them
			w.wakeAt.Store(0)
			return
		}
	}
	w.wakeAt.Store(0)
}

// drain waits until every expected delivery arrived; after a timeout the
// oracle counts the missing deliveries.
func (w *streamWL) drain() {
	want := w.expectedThrough(w.published)
	if !waitFor(10*time.Second, func() bool { return w.delivered.Load() >= want }) {
		w.timeouts++
	}
}

// tputWindow is the span of one closed-loop throughput sample; the median
// sample is reported, so a stall shorter than half the leg does not move it.
const tputWindow = 500 * time.Millisecond

// measure runs the open-loop leg for 40% of d and the closed-loop leg for
// the rest: the latency median settles on fewer samples than the
// throughput median, whose half-second windows swing by ±40%.
func (w *streamWL) measure(d time.Duration, tr *tracer) error {
	w.mu.Lock()
	w.ph = streamPhase{c0: metrics.Counters()}
	w.mu.Unlock()
	w.ph.data0, w.ph.ctl0 = w.line.sentBytes()
	open := time.Duration(float64(d) * 0.4)

	// Open loop at a fixed rate: tuple k is due k/rate after the leg
	// starts and its deliveries are timed from then, so a stalled
	// generator or pipeline shows as latency, not as a lower rate.
	leg := tr.begin("leg.open", -1)
	base := w.published
	w.openLo.Store(base)
	w.openHi.Store(base)
	period := float64(time.Second) / w.rate
	legStart := time.Since(w.t0).Nanoseconds()
	for k := int64(0); k < int64(len(w.due)); {
		now := time.Since(w.t0).Nanoseconds()
		due := legStart + int64(float64(k)*period)
		if time.Duration(due-legStart) >= open {
			break
		}
		if due > now {
			time.Sleep(time.Duration(due - now))
			continue
		}
		w.due[k].Store(due)
		w.openHi.Store(base + k + 1)
		w.ph.lag.add(time.Duration(now - due))
		w.publish(tr, leg)
		k++
	}
	w.drain()
	tr.finish(leg)

	// Closed loop: keep at most window tuples' worth of deliveries in
	// flight, so the pipelines stay busy and nothing is shed.
	leg = tr.begin("leg.closed", -1)
	perTuple := float64(w.cum[len(w.pool)]) / float64(len(w.pool))
	limit := int64(float64(w.window) * perTuple)
	start := time.Now()
	end := start.Add(d - open)
	mark, markN := start, w.published
	for n := 0; time.Now().Before(end); n++ {
		if w.expectedThrough(w.published)-w.delivered.Load() >= limit {
			// Full: wait until a quarter of the window has drained.
			w.waitDelivered(w.expectedThrough(w.published) - limit*3/4)
		}
		w.publish(nil, leg)
		if n%256 == 0 {
			w.sampleQueues()
			if now := time.Now(); now.Sub(mark) >= tputWindow {
				w.ph.rates = append(w.ph.rates, float64(w.published-markN)/now.Sub(mark).Seconds())
				mark, markN = now, w.published
			}
		}
	}
	if len(w.ph.rates) == 0 { // a leg shorter than one window
		w.ph.rates = append(w.ph.rates, float64(w.published-markN)/time.Since(mark).Seconds())
	}
	w.drain()
	tr.finish(leg)
	w.ph.c1 = metrics.Counters()
	w.ph.data1, w.ph.ctl1 = w.line.sentBytes()
	return nil
}

func (w *streamWL) sampleQueues() {
	for _, node := range w.line[:2] {
		for _, st := range node.PipeStatus() {
			if st.Queued > w.ph.queueHW {
				w.ph.queueHW = st.Queued
			}
		}
	}
}

// check compares every subscription's delivery count with the in-process
// replay of the tuples published. A missing or surplus delivery is a
// failure; a surplus one also makes the run incorrect.
func (w *streamWL) check() (attempted, failed int64, correct bool, detail map[string]float64) {
	want := make([]int64, len(w.subs))
	p := int64(len(w.pool))
	for i, hits := range w.hits {
		n := w.published / p
		if int64(i) < w.published%p {
			n++
		}
		for _, s := range hits {
			want[s] += n
		}
	}
	correct = true
	for i := range want {
		attempted += want[i]
		if diff := want[i] - w.counts[i].Load(); diff != 0 {
			failed += max(diff, -diff)
			correct = correct && diff > 0
		}
	}
	return attempted, failed, correct, map[string]float64{"drain_timeouts": float64(w.timeouts)}
}

func (w *streamWL) close() { w.line.close() }

// results reports the last measure call.
func (w *streamWL) results(tr *tracer) (e2e, detail, layers map[string]float64) {
	ph := &w.ph
	n := float64(ph.tuples)
	d := func(name string) float64 { return counterDelta(ph.c1, ph.c0, name) }
	w.mu.Lock()
	lat, lat1 := ph.lat, ph.lat1
	w.mu.Unlock()
	tput := median(ph.rates)
	// Both links of the line weigh 1 ms, so the paper's weighted cost is
	// the bytes the brokers accounted.
	wcost := ratio(ph.data1-ph.data0+ph.ctl1-ph.ctl0, n)
	e2e = map[string]float64{
		"latency_p50_ms": median(lat),
		"ops_per_s":      tput,
		"wcost_per_op":   wcost,
	}
	detail = map[string]float64{
		"deliver_p50_ms":  median(lat),
		"deliver_p99_ms":  tail(lat),
		"deliver_samples": float64(len(lat)),
		"tput_tuples_s":   tput,
	}
	layers = map[string]float64{
		"transport.batch_mean":           ratio(d("transport.batch_size"), d("transport.batches")),
		"transport.wire_msgs_per_tuple":  ratio(d("transport.wire_msgs"), n),
		"transport.data_bytes_per_tuple": ratio(ph.data1-ph.data0, n),
		"transport.queue_hw":             float64(ph.queueHW),
		"transport.dropped":              d("transport.dropped_data"),
		"transport.send_retries":         d("transport.send_retries"),
		"transport.hop1_p50_ms":          median(lat1),
		"pubsub.route_us_p50":            1000 * median(w.route),
		"pubsub.publish_call_us_p50":     1000 * median(tr.durations("Broker.Publish")),
		"pubsub.deliveries_per_tuple":    ratio(d("pubsub.local_deliveries"), n),
		"pubsub.forwards_per_tuple":      ratio(d("pubsub.forwarded_tuples"), n),
		"bench.gen_lag_p99_ms":           quantile(ph.lag, 0.99),
	}
	return e2e, detail, layers
}
