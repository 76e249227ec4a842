package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	cosmos "repro"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/prototype"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

const (
	// queriesPrefix is the number of leading rounds whose counts are
	// reported as per-tuple ratios and whose outcomes are the run's
	// attempted and failed: they depend only on the seed.
	queriesPrefix = 40
	adaptEvery    = 5 // rounds between Adapt calls
	churnLive     = 3 // rounds a churned query stays submitted
)

// queriesWL drives the whole middleware in-process through the cosmos API:
// a standing fleet of monitoring queries over five deployments of 20
// stations, and rounds of one Submit, one trace tick and one Cancel with
// an Adapt every few rounds.
type queriesWL struct {
	standing []*liveQuery
	rng      *rand.Rand // draws the churned queries
	setups   int

	world    *prototype.World
	m        *cosmos.Middleware
	startDur samples
	all      []*liveQuery
	churn    []*liveQuery
	ticks    [][]stream.Tuple // every published tuple, by tick
	rounds   int

	prefixBase queriesCounts
	prefix     queriesCounts // over the first queriesPrefix rounds
	ph         queriesPhase
}

// liveQuery is one submitted query and the results it received in the
// ticks [from, to).
type liveQuery struct {
	cql      string
	proxy    int
	from, to int
	h        *cosmos.QueryHandle
	results  []uint64 // resultHash of each result received
	prefixN  int      // len(results) after the first queriesPrefix rounds
}

// queriesCounts snapshots the deterministic counts.
type queriesCounts struct {
	tuples  int64
	traffic float64
	eng     engine.Stats
}

// queriesPhase holds what one measure call observed.
type queriesPhase struct {
	publish, submit, cancel, adapt, parse samples
	migrations                            int
	tuples, submits, cancels              int64
	subscribes, unsubscribes              float64
	c0, c1                                map[string]int64
	data0, data1, ctl0, ctl1              float64
}

func newQueriesWL(seed uint64, scale float64) *queriesWL {
	w := &queriesWL{setups: 7, rng: rand.New(rand.NewPCG(seed, 0xc4e7))}
	fleet := rand.New(rand.NewPCG(seed, 0xf1ee7))
	for i := 0; i < int(1000*scale); i++ {
		w.standing = append(w.standing, genQuery(fleet, i))
	}
	return w
}

// genQuery draws the i-th monitoring query: 97% single-deployment [Now]
// threshold alerts with one or two numeric predicates, half of them
// projected, and 3% drift joins of a short Range window against [Now] (the
// shapes of the paper's Table 1 Q3/Q4). The shape, stream and proxy
// (a processor index) are fixed by i and only alert values are drawn, so
// every seed gives the same mix.
func genQuery(rng *rand.Rand, i int) *liveQuery {
	proxy := i / 5 % 25
	if i%33 == 16 {
		// A join's result volume jumps with every station its
		// thresholds admit, so joins are fixed by i and the seed draws
		// only the alerts: otherwise the fleet's traffic would be set by
		// a few joins.
		j := i / 33
		frac := math.Mod(float64(j)*0.618034, 1)
		a := i % 5
		b := (a + 1 + j%4) % 5
		cql := fmt.Sprintf("SELECT A.snowHeight, B.snowHeight, A.timestamp FROM %s [Range %d Minutes] A, %s [Now] B "+
			"WHERE A.snowHeight > B.snowHeight AND A.snowHeight > %.1f AND B.snowHeight < %.1f",
			trace.StreamName(a), []int{2, 3, 5}[j%3], trace.StreamName(b), 65+5*frac, 35-5*frac)
		return &liveQuery{cql: cql, proxy: proxy}
	}
	type cond struct {
		attr string
		text func() string
	}
	conds := []cond{
		{"snowHeight", func() string { return fmt.Sprintf("snowHeight > %.1f", 40+35*rng.Float64()) }},
		{"snowHeight", func() string { return fmt.Sprintf("snowHeight < %.1f", 25+25*rng.Float64()) }},
		{"temperature", func() string { return fmt.Sprintf("temperature < %.1f", -12+12*rng.Float64()) }},
		{"temperature", func() string { return fmt.Sprintf("temperature > %.1f", -5+10*rng.Float64()) }},
		{"windSpeed", func() string { return fmt.Sprintf("windSpeed > %.1f", 5+6*rng.Float64()) }},
	}
	first := conds[rng.IntN(len(conds))]
	where := []string{first.text()}
	if i/2%2 == 0 {
		second := conds[rng.IntN(len(conds))]
		for second.attr == first.attr {
			second = conds[rng.IntN(len(conds))]
		}
		where = append(where, second.text())
	}
	sel := "*"
	if i%2 == 0 {
		attrs := []string{"snowHeight", "temperature", "windSpeed", "sensorType"}
		rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		sel = "station, " + strings.Join(attrs[:1+rng.IntN(2)], ", ")
	}
	cql := fmt.Sprintf("SELECT %s FROM %s [Now] WHERE %s", sel, trace.StreamName(i%5), strings.Join(where, " AND "))
	return &liveQuery{cql: cql, proxy: proxy}
}

// setup builds the 30-node world, registers the five deployments, submits
// the standing fleet and starts the middleware. It runs w.setups times and
// keeps the last middleware.
func (w *queriesWL) setup(tr *tracer) (samples, error) {
	var took samples
	for r := 0; r < w.setups; r++ {
		start := time.Now()
		// The deployment (topology, sources, processors, stations) is
		// fixed; the seed draws the queries submitted to it.
		world, err := prototype.NewWorld(30, trace.Config{Stations: 100, Deployments: 5, PeriodMillis: 60_000, Seed: 1}, 1)
		if err != nil {
			return nil, err
		}
		m, err := cosmos.New(world.Graph, world.Processors, cosmos.Config{})
		if err != nil {
			return nil, err
		}
		perDeployment := len(world.SubRates) / len(world.Sources)
		for d, src := range world.Sources {
			if err := m.RegisterStream(cosmos.StreamDef{
				Name: trace.StreamName(d), Schema: trace.Schema(), Source: src,
				Substreams: perDeployment, RatePerSubstream: world.SubRates[d],
			}); err != nil {
				return nil, err
			}
		}
		for _, lq := range w.standing {
			lq.results = nil
			if lq.h, err = m.Submit(lq.cql, world.Processors[lq.proxy], lq.sink); err != nil {
				return nil, fmt.Errorf("submit %q: %w", lq.cql, err)
			}
		}
		s := time.Now()
		if err := m.Start(); err != nil {
			return nil, err
		}
		e := time.Now()
		tr.record("Middleware.Start", -1, s, e)
		w.startDur.add(e.Sub(s))
		took = append(took, time.Since(start).Seconds())
		w.world, w.m = world, m
	}
	w.all = append([]*liveQuery(nil), w.standing...)
	return took, nil
}

// sink keeps a hash of each result, not the tuple: retaining every result
// would grow the heap, and the garbage collector's cost with it, over the
// run.
func (lq *liveQuery) sink(t cosmos.Tuple) { lq.results = append(lq.results, resultHash(t)) }

// round submits one churned query, publishes one trace tick, cancels the
// oldest churned query once churnLive are live, and adapts every
// adaptEvery rounds.
func (w *queriesWL) round(tr *tracer) error {
	ph := &w.ph
	round := tr.begin("round", -1)
	defer tr.finish(round)
	tick := len(w.ticks)

	lq := genQuery(w.rng, len(w.all))
	start := time.Now()
	_, err := query.Parse(lq.cql)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("parse %q: %w", lq.cql, err)
	}
	tr.record("query.Parse", round, start, end)
	ph.parse.add(end.Sub(start))
	c0 := metrics.Counters()
	start = time.Now()
	lq.h, err = w.m.Submit(lq.cql, w.world.Processors[lq.proxy], lq.sink)
	end = time.Now()
	if err != nil {
		return fmt.Errorf("submit %q: %w", lq.cql, err)
	}
	ph.subscribes += counterDelta(metrics.Counters(), c0, "pubsub.subscribes")
	tr.record("Middleware.Submit", round, start, end)
	ph.submit.add(end.Sub(start))
	ph.submits++
	lq.from = tick
	w.all = append(w.all, lq)
	w.churn = append(w.churn, lq)

	batch := w.world.Trace.Next()
	w.ticks = append(w.ticks, batch)
	for _, t := range batch {
		t := t.Clone()
		start := time.Now()
		err := w.m.Publish(t)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("publish: %w", err)
		}
		tr.record("Middleware.Publish", round, start, end)
		ph.publish.add(end.Sub(start))
	}
	ph.tuples += int64(len(batch))

	if len(w.churn) > churnLive {
		old := w.churn[0]
		w.churn = w.churn[1:]
		c0 := metrics.Counters()
		start := time.Now()
		err := old.h.Cancel()
		end := time.Now()
		if err != nil {
			return fmt.Errorf("cancel: %w", err)
		}
		ph.unsubscribes += counterDelta(metrics.Counters(), c0, "pubsub.unsubscribes")
		tr.record("QueryHandle.Cancel", round, start, end)
		ph.cancel.add(end.Sub(start))
		ph.cancels++
		old.to = tick + 1
	}

	w.rounds++
	if w.rounds%adaptEvery == 0 {
		start := time.Now()
		mig, err := w.m.Adapt()
		end := time.Now()
		if err != nil {
			return fmt.Errorf("adapt: %w", err)
		}
		tr.record("Middleware.Adapt", round, start, end)
		ph.adapt.add(end.Sub(start))
		ph.migrations += mig
	}
	if w.rounds == queriesPrefix {
		w.prefix = diffCounts(w.counts(), w.prefixBase)
		for _, lq := range w.all {
			lq.prefixN = len(lq.results)
		}
	}
	return nil
}

func (w *queriesWL) counts() queriesCounts {
	var n int64
	for _, b := range w.ticks {
		n += int64(len(b))
	}
	return queriesCounts{tuples: n, traffic: w.m.Traffic().WeightedCost, eng: w.m.EngineStats()}
}

// measure runs rounds until d has passed and, in a run's first call, at
// least the counted prefix is done.
func (w *queriesWL) measure(d time.Duration, tr *tracer) error {
	tf := w.m.Traffic()
	w.ph = queriesPhase{c0: metrics.Counters(), data0: tf.DataBytes, ctl0: tf.ControlBytes}
	if w.rounds == 0 {
		w.prefixBase = w.counts()
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) || w.rounds < queriesPrefix {
		if err := w.round(tr); err != nil {
			return err
		}
	}
	tf = w.m.Traffic()
	w.ph.c1, w.ph.data1, w.ph.ctl1 = metrics.Counters(), tf.DataBytes, tf.ControlBytes
	return nil
}

func diffCounts(a, b queriesCounts) queriesCounts {
	return queriesCounts{
		tuples:  a.tuples - b.tuples,
		traffic: a.traffic - b.traffic,
		eng: engine.Stats{Consumed: a.eng.Consumed - b.eng.Consumed,
			Emitted: a.eng.Emitted - b.eng.Emitted, Dropped: a.eng.Dropped - b.eng.Dropped},
	}
}

// check runs every query alone on a standalone engine over exactly the
// tuples published while it was submitted and compares result multisets.
// The outcomes attempted are the oracle's results in the first
// queriesPrefix rounds, which every run completes, so attempted and failed
// depend only on the seed; each missing or extra result among them is a
// failure. The rest of the run is checked the same way and reported as
// run_failed_share, and an extra result anywhere makes the run incorrect.
func (w *queriesWL) check() (attempted, failed int64, correct bool, detail map[string]float64) {
	mismatched, extra := 0, int64(0)
	var runAttempted, runFailed int64
	for _, lq := range w.all {
		to := lq.to
		if to == 0 {
			to = len(w.ticks)
		}
		q, err := query.Parse(lq.cql)
		if err != nil {
			return attempted, failed + 1, false, nil
		}
		q.Name = "oracle"
		diff := make(map[uint64]int)
		var emitted int64
		e := engine.New()
		if err := e.AddQuery(q, "oracle", func(t stream.Tuple) { diff[resultHash(t)]++; emitted++ }); err != nil {
			return attempted, failed + 1, false, nil
		}
		split := max(lq.from, min(to, queriesPrefix))
		for _, batch := range w.ticks[lq.from:split] {
			for _, t := range batch {
				e.Process(t)
			}
		}
		attempted += emitted
		for _, h := range lq.results[:lq.prefixN] {
			diff[h]--
		}
		for _, n := range diff {
			failed += int64(max(n, -n))
		}
		for _, batch := range w.ticks[split:to] {
			for _, t := range batch {
				e.Process(t)
			}
		}
		for _, h := range lq.results[lq.prefixN:] {
			diff[h]--
		}
		runAttempted += emitted
		bad := false
		for _, n := range diff {
			if n != 0 {
				runFailed += int64(max(n, -n))
				bad = true
				extra += int64(max(-n, 0))
			}
		}
		if bad {
			mismatched++
		}
	}
	return attempted, failed, extra == 0, map[string]float64{
		"queries_checked": float64(len(w.all)), "queries_mismatched": float64(mismatched), "results_extra": float64(extra),
		"run_failed_share": ratio(float64(runFailed), float64(runAttempted))}
}

// resultHash fingerprints a result tuple: its timestamp and every
// attribute name and value, combined independently of map order.
func resultHash(t stream.Tuple) uint64 {
	h := mix(uint64(t.Timestamp))
	for name, v := range t.Attrs {
		a := fnv.New64a()
		a.Write([]byte(name))
		a.Write([]byte{byte(v.Type)})
		if v.Type == stream.String {
			a.Write([]byte(v.S))
		} else {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
			a.Write(b[:])
		}
		h += mix(a.Sum64())
	}
	return h
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (w *queriesWL) close() {}

func (w *queriesWL) results(tr *tracer) (e2e, detail, layers map[string]float64) {
	ph := &w.ph
	p := w.prefix
	pt := float64(p.tuples)
	ops := float64(ph.submits + ph.cancels + int64(len(ph.adapt)))
	d := func(name string) float64 { return counterDelta(ph.c1, ph.c0, name) }
	e2e = map[string]float64{
		"latency_p50_ms": median(ph.publish),
		"ops_per_s":      ratio(2000, median(ph.submit)+median(ph.cancel)),
		"wcost_per_op":   ratio(p.traffic, pt),
	}
	detail = map[string]float64{
		"deliver_p50_ms":  median(ph.publish),
		"deliver_p99_ms":  tail(ph.publish),
		"deliver_samples": float64(len(ph.publish)),
		"submit_p50_ms":   median(ph.submit),
		"submit_p99_ms":   tail(ph.submit),
		"cancel_p50_ms":   median(ph.cancel),
		"cancel_p99_ms":   tail(ph.cancel),
		"adapt_ms":        median(ph.adapt),
		"wcost_per_tuple": ratio(p.traffic, pt),
		"rounds":          float64(w.rounds),
	}
	layers = map[string]float64{
		"pubsub.deliveries_per_tuple":    ratio(d("pubsub.local_deliveries"), float64(ph.tuples)),
		"pubsub.forwards_per_tuple":      ratio(d("pubsub.forwarded_tuples"), float64(ph.tuples)),
		"pubsub.subscribes_per_submit":   ratio(ph.subscribes, float64(ph.submits)),
		"pubsub.unsubscribes_per_cancel": ratio(ph.unsubscribes, float64(ph.cancels)),
		"engine.consumed_per_tuple":      ratio(float64(p.eng.Consumed), pt),
		"engine.emitted_per_tuple":       ratio(float64(p.eng.Emitted), pt),
		"engine.dropped_per_tuple":       ratio(float64(p.eng.Dropped), pt),
		"query.parse_us_p50":             1000 * median(ph.parse),
		"hierarchy.adapt_migrations":     ratio(float64(ph.migrations), float64(len(ph.adapt))),
		"cosmos.start_ms":                median(w.startDur),
		"cosmos.data_bytes_per_tuple":    ratio(ph.data1-ph.data0, float64(ph.tuples)),
		"cosmos.ctl_bytes_per_op":        ratio(ph.ctl1-ph.ctl0, ops),
	}
	return e2e, detail, layers
}
