// Command perfbench is the repository benchmark. It runs one of three
// workloads in this process against the public entry points of the
// transport, pub/sub and cosmos layers, checks every outcome against an
// oracle, and prints its metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
//	sh perfbench/run.sh --workload stream --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark workload. setup builds the system several
// times, keeping the last, and returns how long each build took; measure
// runs load for a duration, results reports the last measure call, and
// check compares every outcome so far with the oracle.
type workload interface {
	setup(tr *tracer) (samples, error)
	measure(d time.Duration, tr *tracer) error
	results(tr *tracer) (e2e, detail, layers map[string]float64)
	check() (attempted, failed int64, correct bool, detail map[string]float64)
	close()
}

// endToEnd lists the gated metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"wcost_per_op", "B.ms"},
}

// perLayer lists the metrics reported with --trace 1. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"transport.batch_mean", "count"},
	{"transport.wire_msgs_per_tuple", "count"},
	{"transport.data_bytes_per_tuple", "B"},
	{"transport.queue_hw", "count"},
	{"transport.dropped", "count"},
	{"transport.send_retries", "count"},
	{"transport.hop1_p50_ms", "ms"},
	{"transport.wire_msgs_per_flood", "count"},
	{"transport.ctl_bytes_per_flood", "B"},
	{"pubsub.route_us_p50", "us"},
	{"pubsub.publish_call_us_p50", "us"},
	{"pubsub.deliveries_per_tuple", "count"},
	{"pubsub.forwards_per_tuple", "count"},
	{"pubsub.flood_inproc_ms", "ms"},
	{"pubsub.subs_sent_per_flood", "count"},
	{"pubsub.suppressed_share", "share"},
	{"pubsub.retractions_per_flood", "count"},
	{"pubsub.subscribes_per_submit", "count"},
	{"pubsub.unsubscribes_per_cancel", "count"},
	{"engine.consumed_per_tuple", "count"},
	{"engine.emitted_per_tuple", "count"},
	{"engine.dropped_per_tuple", "count"},
	{"query.parse_us_p50", "us"},
	{"hierarchy.adapt_migrations", "count"},
	{"cosmos.start_ms", "ms"},
	{"cosmos.data_bytes_per_tuple", "B"},
	{"cosmos.ctl_bytes_per_op", "B"},
	{"cpu.transport", "share"},
	{"cpu.pubsub", "share"},
	{"cpu.engine", "share"},
	{"cpu.query", "share"},
	{"cpu.optimizer", "share"},
	{"cpu.cosmos", "share"},
	{"cpu.gc", "share"},
	{"cpu.syscall", "share"},
	{"cpu.other", "share"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead", "share"},
	{"bench.failed_share", "share"},
	{"e2e.deliver_p50_ms", "ms"},
	{"e2e.deliver_p99_ms", "ms"},
	{"e2e.tput_tuples_s", "1/s"},
	{"e2e.join_ms", "ms"},
	{"e2e.leave_ms", "ms"},
	{"e2e.resub_ms", "ms"},
	{"e2e.submit_p50_ms", "ms"},
	{"e2e.submit_p99_ms", "ms"},
	{"e2e.cancel_p50_ms", "ms"},
	{"e2e.cancel_p99_ms", "ms"},
	{"e2e.adapt_ms", "ms"},
	{"e2e.wcost_per_tuple", "B.ms"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: stream, flood or queries")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	scale := flag.Float64("scale", 1, "population scale (tests use a small one)")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || *scale <= 0 {
		return fmt.Errorf("bad flags: --seconds %d --trace %d --scale %g", *seconds, *traced, *scale)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	w, err := newWorkload(*name, *seed, *scale, float64(*seconds))
	if err != nil {
		return err
	}
	res, lines, err := execute(w, time.Duration(*seconds)*time.Second, *traced == 1,
		filepath.Join(".bench_trace", fmt.Sprintf("%s-seed%d", *name, *seed)))
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func newWorkload(name string, seed uint64, scale, seconds float64) (workload, error) {
	switch name {
	case "stream":
		return newStreamWL(seed, scale, seconds), nil
	case "flood":
		return newFloodWL(seed, scale), nil
	case "queries":
		return newQueriesWL(seed, scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want stream, flood or queries)", name)
}

// execute runs one workload. Untraced, it measures for d and reports the
// end-to-end metrics. Traced, it measures d/2 untraced and d/2 traced on the
// same system and reports the per-layer metrics of the traced half, with
// the latency gap between the halves as bench.trace_overhead; the spans,
// counter deltas and CPU profile are written under traceDir.
func execute(w workload, d time.Duration, traced bool, traceDir string) (*result, []string, error) {
	defer w.close()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	setups, err := w.setup(tr)
	if err != nil {
		return nil, nil, err
	}
	first := d
	if traced {
		first = d / 2
	}
	if err := w.measure(first, nil); err != nil {
		return nil, nil, err
	}
	e2e, detail, layers := w.results(nil)
	e2e["setup_s"] = median(setups)
	if traced {
		if err := tr.start(); err != nil {
			return nil, nil, err
		}
		err := w.measure(d-first, tr)
		tr.stop()
		if err != nil {
			return nil, nil, err
		}
		var e2eT map[string]float64
		e2eT, _, layers = w.results(tr)
		layers["bench.trace_overhead"] = ratio(e2eT["latency_p50_ms"], e2e["latency_p50_ms"]) - 1
		split, err := cpuSplit(tr.cpu.Bytes())
		if err != nil {
			return nil, nil, err
		}
		for b, v := range split {
			layers["cpu."+b] = v
		}
	}
	attempted, failed, correct, checkDetail := w.check()
	if attempted < 1 {
		return nil, nil, fmt.Errorf("the oracle checked no outcomes")
	}
	for k, v := range checkDetail {
		detail[k] = v
	}
	detail["failed_share"] = ratio(float64(failed), float64(attempted))
	layers["bench.failed_share"] = detail["failed_share"]
	for k, v := range detail {
		layers["e2e."+k] = v
	}

	defs, values := endToEnd, e2e
	if traced {
		defs, values = perLayer, layers
		if err := tr.write(traceDir, layers); err != nil {
			return nil, nil, err
		}
	}
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	var lines []string
	for _, group := range []struct {
		title string
		vals  map[string]float64
	}{{"end-to-end", e2e}, {"workload detail", detail}, {"per-layer", layers}} {
		lines = append(lines, "# "+group.title)
		keys := make([]string, 0, len(group.vals))
		for k := range group.vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			lines = append(lines, fmt.Sprintf("#   %-34s %.6g", k, group.vals[k]))
		}
	}
	return res, lines, nil
}
