package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/metrics"
)

// maxSpans caps the in-memory span log; spans past it are counted, not kept.
const maxSpans = 400_000

// span is one call the benchmark made into a layer. Times are nanoseconds
// since the traced phase began; Parent indexes the enclosing benchmark
// operation (a leg, a round) or is -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// counterRec holds the metrics.Counters deltas over one outer span.
type counterRec struct {
	Span   int32            `json:"span"`
	Name   string           `json:"name"`
	Deltas map[string]int64 `json:"deltas"`
}

// tracer records spans and counter deltas in memory and a CPU profile of
// this process. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	t0       time.Time
	spans    []span
	dropped  int64
	counters []counterRec
	open     map[int32]map[string]int64
	cpu      bytes.Buffer
}

func newTracer() *tracer {
	return &tracer{open: make(map[int32]map[string]int64)}
}

// start begins the traced phase and the CPU profile.
func (tr *tracer) start() error {
	tr.t0 = time.Now()
	if err := pprof.StartCPUProfile(&tr.cpu); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

// stop ends the CPU profile.
func (tr *tracer) stop() { pprof.StopCPUProfile() }

// record logs a completed call; it returns the span's index.
func (tr *tracer) record(name string, parent int32, start, end time.Time) int32 {
	if tr == nil {
		return -1
	}
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Start: start.Sub(tr.t0).Nanoseconds(),
		End: end.Sub(tr.t0).Nanoseconds(), Parent: parent})
	return int32(len(tr.spans) - 1)
}

// begin opens an outer span and snapshots the counters at its start.
func (tr *tracer) begin(name string, parent int32) int32 {
	if tr == nil {
		return -1
	}
	now := time.Now()
	id := tr.record(name, parent, now, now)
	if id >= 0 {
		tr.open[id] = metrics.Counters()
	}
	return id
}

// finish closes an outer span and stores the counter deltas over it.
func (tr *tracer) finish(id int32) {
	if tr == nil || id < 0 {
		return
	}
	tr.spans[id].End = time.Since(tr.t0).Nanoseconds()
	before := tr.open[id]
	delete(tr.open, id)
	after := metrics.Counters()
	d := make(map[string]int64)
	for name, v := range after {
		if v != before[name] {
			d[name] = v - before[name]
		}
	}
	tr.counters = append(tr.counters, counterRec{Span: id, Name: tr.spans[id].Name, Deltas: d})
}

// durations returns the durations in milliseconds of every span named name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	if tr == nil {
		return nil
	}
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans, counter deltas, CPU profile and the layer
// metrics under dir.
func (tr *tracer) write(dir string, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	if err := writeJSONL(filepath.Join(dir, "spans.jsonl"), len(tr.spans), func(i int) any { return tr.spans[i] }); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, "counters.jsonl"), len(tr.counters), func(i int) any { return tr.counters[i] }); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), tr.cpu.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write cpu profile: %w", err)
	}
	summary := map[string]any{"layers": layers, "spans": len(tr.spans), "spans_dropped": tr.dropped}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), b, 0o644)
}

func writeJSONL(path string, n int, item func(int) any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		if err := enc.Encode(item(i)); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// cpuBuckets are the per-module CPU shares reported as cpu.<bucket>.
var cpuBuckets = []string{"transport", "pubsub", "engine", "query", "optimizer", "cosmos", "gc", "syscall", "other"}

// layerOf maps a function's package to its module bucket; "" passes the
// sample on to the caller (shared data-type and instrumentation packages).
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "repro":
		return "cosmos"
	case "repro/internal/transport":
		return "transport"
	case "repro/internal/pubsub":
		return "pubsub"
	case "repro/internal/engine":
		return "engine"
	case "repro/internal/query":
		return "query"
	case "repro/internal/hierarchy", "repro/internal/querygraph", "repro/internal/mapping",
		"repro/internal/adapt", "repro/internal/netgraph", "repro/internal/topology":
		return "optimizer"
	}
	return ""
}

// cpuSplit buckets the samples of a gzipped pprof CPU profile by module.
// A sample inside the garbage collector counts as gc and one inside a
// system call as syscall; otherwise the innermost frame of a repository
// module decides, and samples with none count as other.
func cpuSplit(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	total := 0.0
	by := make(map[string]float64)
	for _, s := range p.samples {
		bucket := "other"
		frames := make([]string, 0, 32)
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
	classify:
		for _, fn := range frames {
			switch {
			case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.gcAssist"),
				strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"):
				bucket = "gc"
				break classify
			}
		}
		if bucket == "other" {
			for _, fn := range frames {
				if strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
					strings.HasPrefix(fn, "runtime.netpoll") {
					bucket = "syscall"
					break
				}
			}
		}
		if bucket == "other" {
			for _, fn := range frames {
				if l := layerOf(fn); l != "" {
					bucket = l
					break
				}
			}
		}
		by[bucket] += float64(s.value)
		total += float64(s.value)
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = ratio(by[b], total)
	}
	return out, nil
}

// profile is the part of a pprof profile cpuSplit reads.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type profSample struct {
	locs  []uint64 // innermost first
	value int64    // last sample value (CPU nanoseconds)
}

// parseProfile decodes the protobuf wire format of profile.proto
// (github.com/google/pprof/proto/profile.proto) far enough to attribute
// samples to functions.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = make(map[uint64]int64)
		locLines = make(map[uint64][]uint64)
		p        = &profile{locFuncs: make(map[uint64][]string)}
	)
	err = pbFields(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []int64
			err := pbFields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(wt, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(wt, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, wt int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if n := funcName[f]; n >= 0 && int(n) < len(strs) {
				names = append(names, strs[n])
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields calls fn for each field of a protobuf message: v holds varint
// and fixed values, b the bytes of length-delimited ones.
func pbFields(b []byte, fn func(field, wireType int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field, packed or not.
func pbUints(wt int, v uint64, b []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
