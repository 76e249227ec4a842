package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/stream"
)

// floodPrefix is the number of leading cycles whose control-plane counts
// are reported: a run's cycle count depends on speed, the counts of a fixed
// prefix only on the seed.
const floodPrefix = 3

// floodWL is the control-plane workload: a population of pending
// subscriptions with nested covering chains sits at node 2 of the TCP line,
// and repeated join, resub and leave legs are each timed to convergence.
// No data moves.
type floodWL struct {
	streams int
	subs    []*pubsub.Subscription
	order   []int // node 2's current subscription order
	rng     *rand.Rand
	setups  int

	line    tcpLine
	twin    *pubsub.Network // in-process network driven through the same operations
	cycles  int
	legs    int64
	failed  int64 // legs that timed out or converged to the wrong state
	wrong   int64 // legs that converged to a state other than the twin's
	stopped bool  // a leg timed out; the overlay state is unknown

	prefix map[string]float64 // counter sums over the first floodPrefix cycles

	ph floodPhase
}

// floodPhase holds what one measure call observed.
type floodPhase struct {
	join, leave, resub, inproc samples
	legs                       int
	counts                     map[string]float64 // counter sums over the TCP legs
	ctl                        float64            // broker-accounted control bytes over the TCP legs
	queueHW                    int
}

var floodCounters = []string{
	"transport.wire_msgs", "transport.batches", "transport.batch_size", "transport.dropped_data",
	"transport.send_retries", "pubsub.subscriptions_sent", "pubsub.subscriptions_suppressed",
	"pubsub.retractions_sent",
}

func newFloodWL(seed uint64, scale float64) *floodWL {
	w := &floodWL{streams: 4, setups: 15, rng: rand.New(rand.NewPCG(seed, 0xf100d)),
		prefix: make(map[string]float64)}
	n := int(1200 * scale)
	// Nested chains of snowHeight intervals around random centres: a
	// wider link covers a narrower one unless it is the one carrying an
	// extra predicate or a projection, so covering both hits and misses.
	// The chain shapes are fixed by position and only values are drawn,
	// so every seed gives the same mix of covers found and missed.
	for chain := 0; len(w.subs) < n; chain++ {
		s := chain % w.streams
		c := 100 * w.rng.Float64()
		step := 0.5 + 3*w.rng.Float64()
		depth := 1 + chain%4
		for k := 1; k <= depth && len(w.subs) < n; k++ {
			i := len(w.subs)
			lo, hi := c-step*float64(k), c+step*float64(k)
			filters := []query.Predicate{pred("snowHeight", query.Ge, lo), pred("snowHeight", query.Le, hi)}
			if i%3 == 0 {
				filters = append(filters, pred("temperature", query.Lt, -20+30*w.rng.Float64()))
			}
			var attrs []string
			if i%2 == 0 {
				attrs = []string{"station", "snowHeight", "temperature"}
			}
			w.subs = append(w.subs, &pubsub.Subscription{
				ID: fmt.Sprintf("f%d", len(w.subs)), Streams: []string{streamName(s)},
				Attrs: attrs, Filters: filters,
			})
		}
	}
	w.rng.Shuffle(len(w.subs), func(i, j int) { w.subs[i], w.subs[j] = w.subs[j], w.subs[i] })
	w.order = make([]int, len(w.subs))
	for i := range w.order {
		w.order[i] = i
	}
	return w
}

func noHandler(*pubsub.Subscription, stream.Tuple) {}

// subscribe registers a copy: brokers stamp the epoch into the value and
// keep it, so the TCP line and the twin must not share one.
func subscribe(b *pubsub.Broker, sub *pubsub.Subscription, h pubsub.Handler) error {
	c := *sub
	if err := b.Subscribe(&c, h); err != nil {
		return fmt.Errorf("subscribe %s: %w", sub.ID, err)
	}
	return nil
}

// setup builds the TCP line with the population pending at node 2 (no
// stream is advertised yet). It runs w.setups times and keeps the last
// line; the twin is built afterwards, untimed.
func (w *floodWL) setup(*tracer) (samples, error) {
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
		for _, i := range w.order {
			if err := subscribe(line[2].Broker, w.subs[i], noHandler); err != nil {
				return nil, err
			}
		}
		took = append(took, time.Since(start).Seconds())
		// Both markers once around, untimed, so every pipe has dialled
		// before the first leg.
		for k := 0; k < 2; k++ {
			if !barrier(line[0].Broker, line[2].Broker, "M0", 10*time.Second) ||
				!barrier(line[2].Broker, line[0].Broker, "M2", 10*time.Second) {
				return nil, fmt.Errorf("flood set-up: marker barrier timed out")
			}
		}
	}
	twin, err := inprocLine()
	if err != nil {
		return nil, err
	}
	w.twin = twin
	b2, _ := twin.Broker(2)
	for _, i := range w.order {
		if err := subscribe(b2, w.subs[i], noHandler); err != nil {
			return nil, err
		}
	}
	return took, nil
}

// leg runs one operation on the twin (timed as the in-process replay) and
// then on the TCP line, timed until done reports convergence. It then
// passes both barriers, untimed, so every message the leg caused has been
// applied and counted, and compares node 0 and node 1 with the twin.
func (w *floodWL) leg(name string, samplesOut *samples, tr *tracer,
	twinOp func(b0, b1, b2 *pubsub.Broker), tcpOp func(), done func(want0 int) bool) {
	t0b, _ := w.twin.Broker(0)
	t1b, _ := w.twin.Broker(1)
	t2b, _ := w.twin.Broker(2)
	start := time.Now()
	twinOp(t0b, t1b, t2b)
	end := time.Now()
	tr.record("inproc."+name, -1, start, end)
	w.ph.inproc.add(end.Sub(start))
	want0, want1 := remoteState(t0b), remoteState(t1b)

	c0 := metrics.Counters()
	ctl0 := w.ctlBytes()
	span := tr.begin(name, -1)
	start = time.Now()
	tcpOp()
	ok := waitFor(10*time.Second, func() bool {
		for _, n := range w.line {
			for _, st := range n.PipeStatus() {
				w.ph.queueHW = max(w.ph.queueHW, st.Queued)
			}
		}
		return done(want0)
	})
	dur := time.Since(start)
	tr.finish(span)
	ok = ok && barrier(w.line[2].Broker, w.line[0].Broker, "M2", 10*time.Second) &&
		barrier(w.line[0].Broker, w.line[2].Broker, "M0", 10*time.Second)
	w.legs++
	w.ph.legs++
	if !ok {
		w.failed++
		w.stopped = true
		return
	}
	samplesOut.add(dur)
	if remoteState(w.line[0].Broker) != want0 || remoteState(w.line[1].Broker) != want1 {
		w.failed++
		w.wrong++
	}
	c1 := metrics.Counters()
	for _, name := range floodCounters {
		w.ph.counts[name] += counterDelta(c1, c0, name)
	}
	w.ph.ctl += w.ctlBytes() - ctl0
	if w.cycles < floodPrefix {
		for _, name := range floodCounters {
			w.prefix[name] += counterDelta(c1, c0, name)
		}
	}
}

func (w *floodWL) ctlBytes() float64 {
	_, c := w.line.sentBytes()
	return c
}

// cycle runs join, resub and leave once.
func (w *floodWL) cycle(tr *tracer) {
	b0, b2 := w.line[0].Broker, w.line[2].Broker
	w.leg("join", &w.ph.join, tr,
		func(t0, _, _ *pubsub.Broker) {
			for s := 0; s < w.streams; s++ {
				t0.Advertise(streamName(s))
			}
		},
		func() {
			for s := 0; s < w.streams; s++ {
				b0.Advertise(streamName(s))
			}
		},
		func(want0 int) bool { return remoteState(b0) == want0 })
	if w.stopped {
		return
	}

	// Unsubscribe everything, then subscribe again in a fresh seeded
	// order, so covers sometimes arrive after what they cover. The leg
	// ends when a marker advertised behind the burst reaches node 0.
	next := w.rng.Perm(len(w.subs))
	resub := func(b *pubsub.Broker) {
		for _, i := range w.order {
			b.Unsubscribe(w.subs[i].ID)
		}
		for _, i := range next {
			if err := subscribe(b, w.subs[i], noHandler); err != nil {
				panic(err) // Subscribe fails only on an empty subscription
			}
		}
	}
	var marked bool
	w.leg("resub", &w.ph.resub, tr,
		func(_, _, t2 *pubsub.Broker) { resub(t2) },
		func() {
			resub(b2)
			marked = barrier(b2, b0, "M2", 10*time.Second)
		},
		func(int) bool { return marked })
	w.order = next
	if w.stopped {
		return
	}

	w.leg("leave", &w.ph.leave, tr,
		func(t0, _, _ *pubsub.Broker) {
			for s := 0; s < w.streams; s++ {
				t0.Unadvertise(streamName(s))
			}
		},
		func() {
			for s := 0; s < w.streams; s++ {
				b0.Unadvertise(streamName(s))
			}
		},
		func(int) bool {
			if remoteState(b0) != 0 {
				return false
			}
			for s := 0; s < w.streams; s++ {
				if b2.StreamAdvertised(streamName(s)) {
					return false
				}
			}
			return true
		})
	if !w.stopped {
		w.cycles++
	}
}

// measure runs cycles until d has passed and, in a run's first call, at
// least the counted prefix is done.
func (w *floodWL) measure(d time.Duration, tr *tracer) error {
	w.ph = floodPhase{counts: make(map[string]float64)}
	end := time.Now().Add(d)
	for !w.stopped && (time.Now().Before(end) || w.cycles < floodPrefix) {
		w.cycle(tr)
	}
	return nil
}

// check reports the legs run and those that did not converge or did not
// reach the twin's state; the latter also make the run incorrect.
func (w *floodWL) check() (attempted, failed int64, correct bool, detail map[string]float64) {
	return w.legs, w.failed, w.wrong == 0, nil
}

func (w *floodWL) close() { w.line.close() }

func (w *floodWL) results(tr *tracer) (e2e, detail, layers map[string]float64) {
	ph := &w.ph
	var all []float64
	all = append(append(append(all, ph.join...), ph.resub...), ph.leave...)
	cycle := median(ph.join) + median(ph.resub) + median(ph.leave)
	n := float64(len(w.subs))
	legs := float64(ph.legs)
	c := ph.counts
	sent, supp := w.prefix["pubsub.subscriptions_sent"], w.prefix["pubsub.subscriptions_suppressed"]
	prefixLegs := float64(3 * floodPrefix)
	e2e = map[string]float64{
		"latency_p50_ms": median(all),
		"ops_per_s":      ratio(3*n, cycle/1000),
		// Each of the line's links weighs 1 ms.
		"wcost_per_op": ratio(ph.ctl, n*legs),
	}
	detail = map[string]float64{
		"join_ms":  median(ph.join),
		"leave_ms": median(ph.leave),
		"resub_ms": median(ph.resub),
		"legs":     legs,
	}
	layers = map[string]float64{
		"transport.batch_mean":          ratio(c["transport.batch_size"], c["transport.batches"]),
		"transport.queue_hw":            float64(ph.queueHW),
		"transport.dropped":             c["transport.dropped_data"],
		"transport.send_retries":        c["transport.send_retries"],
		"transport.wire_msgs_per_flood": ratio(c["transport.wire_msgs"], legs),
		"transport.ctl_bytes_per_flood": ratio(ph.ctl, legs),
		"pubsub.flood_inproc_ms":        median(ph.inproc),
		"pubsub.subs_sent_per_flood":    sent / prefixLegs,
		"pubsub.suppressed_share":       ratio(supp, sent+supp),
		"pubsub.retractions_per_flood":  w.prefix["pubsub.retractions_sent"] / prefixLegs,
	}
	return e2e, detail, layers
}
