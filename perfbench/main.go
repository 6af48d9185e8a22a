// Command perfbench is the repository benchmark. It builds one in-process
// deployment over loopback (sqldb server → db broker with a result cache,
// bounded-time cgi backend → cgi broker, one UDP gateway, an HTTP front end
// and a frontend pool), drives one named workload through it for a fixed
// time, checks every answer, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced on
// several freshly built stacks in turn, each metric the median across them.
// With --trace 1 the run measures half its time untraced and half with the
// layer timing wrappers on, and reports the per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
)

// A --trace 0 run measures this many equal segments, each on a stack built
// and warmed for it, and reports each metric's median across them; setup_s
// is the median of their set-up times. A stack's goroutines, timers and
// sockets settle into a state that lasts its whole life but differs from one
// stack to the next: the windows of one long phase agree closely while two
// such phases on the same seed do not, so a single long phase measures that
// state as much as the program.
const segments = 10

// workloadDef is one named traffic mix.
type workloadDef struct {
	name string
	warm func(*stack, int64) error
	run  func(*phase) error
	// cgi selects the cgi broker and backend as the layer under load.
	cgi bool
}

var workloads = []workloadDef{
	{name: "hot-read", warm: warmHotRead, run: runHotRead},
	{name: "db-rw", warm: warmDBRW, run: runDBRW},
	{name: "overload", warm: warmOverload, run: runOverload, cgi: true},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	revision string
	record   string // directory for the run record and spans; empty writes none
	wrapDB   func(backend.Connector) backend.Connector
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line's object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseOut is everything measured in one phase.
type phaseOut struct {
	dur     time.Duration
	all     *tally
	cpuUs   float64 // process CPU µs per request sent
	allocB  float64 // bytes allocated per request sent
	heapMB  float64
	reasons map[string]int
	wrong   int // wrong answers plus read-back mismatches

	readBackChecked, readBackWrong int

	layers map[string]float64 // traced phases only
	led    ledger
	spans  tracedSpans
}

type tracedSpans struct {
	calls              []callSpan
	residence, backend []span
}

type resSnap struct {
	cpuNs int64
	alloc uint64
}

func snapshot() resSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resSnap{cpuNs: ru.Utime.Nano() + ru.Stime.Nano(), alloc: ms.TotalAlloc}
}

// setUp builds a stack and warms it for wl, returning the time it took.
func setUp(wl workloadDef, cfg config, seed int64, traced bool) (*stack, time.Duration, error) {
	runtime.GC() // each set-up starts from a collected heap
	t0 := time.Now()
	st, err := newStack(stackOptions{traced: traced, wrapDB: cfg.wrapDB})
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := wl.warm(st, seed); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return st, time.Since(t0), nil
}

func runPhase(st *stack, wl workloadDef, seed int64, dur time.Duration, traced bool) (*phaseOut, error) {
	p := &phase{st: st, seed: seed, dur: dur, traced: traced, all: newTally(), reasons: map[string]int{}}
	target, timed, slots := st.db, st.dbTimed, runtime.GOMAXPROCS(0)
	if wl.cgi {
		target, timed, slots = st.cgi, st.cgiTimed, cgiConcurrent
	}
	var before counters
	if traced {
		before = layerCounters(st, timed)
		// Set-up's spans would take room the phase's spans need.
		st.gwConn.log.reset()
		timed.log.reset()
	}

	// Every phase starts from a collected heap, free of set-up garbage.
	runtime.GC()
	p.start = now()
	snap0 := snapshot()
	var load *loadSampler
	if traced {
		load = startLoadSampler(target, timed, slots)
	}

	err := wl.run(p)
	snap1 := snapshot()
	end := now()
	var outstanding, busy float64
	if load != nil {
		outstanding, busy = load.stop()
	}
	if err != nil {
		return nil, err
	}

	n := float64(max(p.all.sent, 1))
	out := &phaseOut{
		dur: dur, all: p.all, reasons: p.reasons,
		cpuUs:  float64(snap1.cpuNs-snap0.cpuNs) / 1e3 / n,
		allocB: float64(snap1.alloc-snap0.alloc) / n,
	}
	out.wrong = p.reasons[failureNames[failWrong]]
	if len(p.writes) > 0 {
		if out.readBackChecked, out.readBackWrong, err = checkWrites(st, p.writes); err != nil {
			return nil, err
		}
		out.wrong += out.readBackWrong
	}
	// Two collections: the second frees what the first only moved to the
	// sync.Pool victim caches, so pooled frame buffers do not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.heapMB = float64(ms.HeapAlloc) / 1e6

	if traced {
		after := layerCounters(st, timed)
		out.spans = tracedSpans{
			calls:     p.calls,
			residence: within(st.gwConn.log.snapshot(), p.start, end),
			backend:   within(timed.log.snapshot(), p.start, end),
		}
		out.led = buildLedger(out.spans.calls, out.spans.residence, out.spans.backend)
		out.layers = layerMetrics(out, before.delta(after), outstanding, busy)
	}
	return out, nil
}

// counters are the cumulative layer counters read around a traced phase.
type counters struct {
	hits, misses, evictions int64
	trips, connects         int64
	reqBytes, respBytes     int64
	reqFrames, respFrames   int64
	framesIn, datagramsIn   uint64
}

func layerCounters(st *stack, timed *timedConnector) counters {
	cs := st.db.CacheStats()
	io := st.gw.IOStats()
	g := st.gwConn
	return counters{
		hits: cs.Hits, misses: cs.Misses, evictions: cs.Evictions,
		trips: timed.trips.Load(), connects: timed.connects.Load(),
		reqBytes: g.reqBytes.Load(), respBytes: g.respBytes.Load(),
		reqFrames: g.reqFrames.Load(), respFrames: g.respFrames.Load(),
		framesIn: io.FramesIn, datagramsIn: io.DatagramsIn,
	}
}

// delta returns c2 − c for every counter except connects, which stays the
// cumulative session count of the stack.
func (c counters) delta(c2 counters) counters {
	return counters{
		hits: c2.hits - c.hits, misses: c2.misses - c.misses, evictions: c2.evictions - c.evictions,
		trips: c2.trips - c.trips, connects: c2.connects,
		reqBytes: c2.reqBytes - c.reqBytes, respBytes: c2.respBytes - c.respBytes,
		reqFrames: c2.reqFrames - c.reqFrames, respFrames: c2.respFrames - c.respFrames,
		framesIn: c2.framesIn - c.framesIn, datagramsIn: c2.datagramsIn - c.datagramsIn,
	}
}

// loadSampler samples, every millisecond, the broker's outstanding count
// (Broker.Load) and how many of the backend's slots are busy: Do calls in
// flight, capped at the slots, since a call beyond them waits for a slot.
type loadSampler struct {
	stopc chan struct{}
	done  chan [2]float64
}

func startLoadSampler(b *broker.Broker, timed *timedConnector, slots int) *loadSampler {
	l := &loadSampler{stopc: make(chan struct{}), done: make(chan [2]float64, 1)}
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		var outstanding, busy, n float64
		for {
			select {
			case <-l.stopc:
				n = max(n, 1)
				l.done <- [2]float64{outstanding / n, busy / n / float64(slots)}
				return
			case <-t.C:
				outstanding += float64(b.Load().Outstanding)
				busy += float64(min(timed.inflight.Load(), int64(slots)))
				n++
			}
		}
	}()
	return l
}

// stop ends sampling and returns the mean outstanding count and the mean
// busy share of the backend's slots.
func (l *loadSampler) stop() (outstanding, busy float64) {
	close(l.stopc)
	r := <-l.done
	return r[0], r[1]
}

// within keeps the spans that started in [start, end].
func within(spans []span, start, end int64) []span {
	out := spans[:0]
	for _, s := range spans {
		if s.start >= start && s.start <= end {
			out = append(out, s)
		}
	}
	return out
}

// layerMetrics derives the traced phase's per-layer figures.
func layerMetrics(out *phaseOut, c counters, outstanding, busy float64) map[string]float64 {
	sent := float64(max(out.all.sent, 1))
	var reads, writes, all []float64
	for _, s := range out.spans.backend {
		us := float64(s.end-s.start) / 1e3
		all = append(all, us)
		if s.write {
			writes = append(writes, us)
		} else {
			reads = append(reads, us)
		}
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	sort.Float64s(all)
	led := out.led
	share := func(us float64) float64 {
		if led.e2eMean == 0 {
			return 0
		}
		return 100 * us / led.e2eMean
	}
	return map[string]float64{
		"frontend.self_us_mean":    led.frontendSelfMean,
		"wire.req_bytes_mean":      float64(c.reqBytes) / float64(max(c.reqFrames, 1)),
		"wire.resp_bytes_mean":     float64(c.respBytes) / float64(max(c.respFrames, 1)),
		"wire.frames_per_datagram": float64(c.framesIn) / float64(max(c.datagramsIn, 1)),
		"broker.residence_us_p50":  led.residenceP50,
		"broker.residence_us_p99":  led.residenceP99,
		"broker.self_us_mean":      led.brokerSelfMean,
		"broker.outstanding_mean":  outstanding,
		"cache.hit_ratio":          ratio(int(c.hits), int(c.hits+c.misses)),
		"cache.evictions_per_req":  float64(c.evictions) / sent,
		"backend.trips_per_req":    float64(c.trips) / sent,
		"backend.connects":         float64(c.connects),
		"backend.self_us_mean":     led.backendMean,
		"backend.do_read_us_p50":   quantile(reads, 0.5),
		"backend.do_write_us_p50":  quantile(writes, 0.5),
		"backend.do_us_p99":        quantile(all, 0.99),
		"backend.busy_ratio":       busy,
		"ledger.e2e_us_mean":       led.e2eMean,
		"ledger.lag_pct":           share(led.lagMean),
		"ledger.frontend_pct":      share(led.frontendSelfMean),
		"ledger.broker_pct":        share(led.brokerSelfMean),
		"ledger.backend_pct":       share(led.backendMean),
		"ledger.unexplained_pct":   led.unexplainedPct,
		"ledger.matched_ratio":     led.matchedRatio,
	}
}

// e2eUnits names every end-to-end metric with its unit, in report order.
// The bounded tail percentile is p90. On hot-read, whose requests take about
// 20 µs, p99 sits at the edge of a small population of millisecond stalls
// whose share follows the host's load; on overload, CPU per request is mostly
// the cost of waking threads in a mostly idle process. Both moved with the
// host by more than any bound of 25% allows, so latency_p99_ms,
// class1_latency_p99_ms and cpu_us_per_req are reported, unbounded, with the
// per-layer metrics.
var e2eUnits = []struct{ name, unit string }{
	{"goodput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"class1_latency_p90_ms", "ms"},
	{"class1_success_ratio", "ratio"},
	{"success_ratio", "ratio"},
	{"alloc_bytes_per_req", "B"},
	{"heap_inuse_mb", "MB"},
	{"setup_s", "s"},
}

// layerUnits names every per-layer metric with its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"latency_p99_ms", "ms"},
	{"class1_latency_p99_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"loadgen.lag_p99_ms", "ms"},
	{"frontend.self_us_mean", "us"},
	{"wire.req_bytes_mean", "B"},
	{"wire.resp_bytes_mean", "B"},
	{"wire.frames_per_datagram", "count"},
	{"broker.residence_us_p50", "us"},
	{"broker.residence_us_p99", "us"},
	{"broker.self_us_mean", "us"},
	{"broker.outstanding_mean", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_req", "count"},
	{"qos.degraded_ratio_class1", "ratio"},
	{"qos.degraded_ratio_class2", "ratio"},
	{"qos.degraded_ratio_class3", "ratio"},
	{"backend.trips_per_req", "count"},
	{"backend.connects", "count"},
	{"backend.self_us_mean", "us"},
	{"backend.do_read_us_p50", "us"},
	{"backend.do_write_us_p50", "us"},
	{"backend.do_us_p99", "us"},
	{"backend.busy_ratio", "ratio"},
	{"error_ratio", "ratio"},
	{"degraded_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.goodput_change_pct", "%"},
	{"ledger.e2e_us_mean", "us"},
	{"ledger.lag_pct", "%"},
	{"ledger.frontend_pct", "%"},
	{"ledger.broker_pct", "%"},
	{"ledger.backend_pct", "%"},
	{"ledger.unexplained_pct", "%"},
	{"ledger.matched_ratio", "ratio"},
}

// e2eMetrics computes the end-to-end figures of a phase, all but setup_s.
func e2eMetrics(out *phaseOut) map[string]float64 {
	a := out.all
	return map[string]float64{
		"goodput_rps":           float64(a.ok) / out.dur.Seconds(),
		"latency_p50_ms":        a.lat.quantile(0.5) / 1e6,
		"latency_p90_ms":        a.lat.quantile(0.90) / 1e6,
		"latency_p99_ms":        a.lat.quantile(0.99) / 1e6,
		"class1_latency_p90_ms": a.class1Lat.quantile(0.90) / 1e6,
		"class1_latency_p99_ms": a.class1Lat.quantile(0.99) / 1e6,
		"class1_success_ratio":  ratio(a.class1OK, a.class1Sent),
		"success_ratio":         ratio(a.ok, a.sent),
		"cpu_us_per_req":        out.cpuUs,
		"alloc_bytes_per_req":   out.allocB,
		"heap_inuse_mb":         out.heapMB,
	}
}

// outcomeMetrics are the per-layer figures read from the untraced phase of a
// traced run: generator lag, per-class degradation, the outcome ratios, and
// the unbounded end-to-end figures (p99 latencies, CPU per request).
func outcomeMetrics(out *phaseOut) map[string]float64 {
	a := out.all
	e2e := e2eMetrics(out)
	m := map[string]float64{
		"loadgen.lag_p99_ms":    a.lag.quantile(0.99) / 1e6,
		"error_ratio":           ratio(a.failed, a.sent),
		"degraded_ratio":        ratio(a.degraded, a.sent),
		"latency_p99_ms":        e2e["latency_p99_ms"],
		"class1_latency_p99_ms": e2e["class1_latency_p99_ms"],
		"cpu_us_per_req":        e2e["cpu_us_per_req"],
	}
	for c := 1; c <= classes; c++ {
		m[fmt.Sprintf("qos.degraded_ratio_class%d", c)] = ratio(a.perClassDegraded[c], a.perClassSent[c])
	}
	return m
}

// unitOf returns the unit of a named metric.
func unitOf(name string) string {
	for _, u := range append(e2eUnits, layerUnits...) {
		if u.name == name {
			return u.unit
		}
	}
	return ""
}

func pctChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return 100 * (to - from) / from
}

// report is one run's full record: the final line's result plus what the
// run record file keeps.
type report struct {
	result
	Record runRecord
}

type runRecord struct {
	Workload    string                  `json:"workload"`
	Seed        int64                   `json:"seed"`
	Seconds     int                     `json:"seconds"`
	Trace       bool                    `json:"trace"`
	Revision    string                  `json:"revision"`
	GoVersion   string                  `json:"go_version"`
	GOMAXPROCS  int                     `json:"gomaxprocs"`
	NProc       int                     `json:"nproc"`
	Deployment  map[string]any          `json:"deployment"`
	Correct     bool                    `json:"correct"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	Failures    map[string]int          `json:"failures"`
	ReadBack    map[string]int          `json:"read_back,omitempty"`
	Setups      []float64               `json:"setup_seconds,omitempty"`
	Metrics     map[string]recordMetric `json:"metrics"`
	Notes       []string                `json:"notes"`
	Untraced    map[string]float64      `json:"untraced_half,omitempty"`
	LatencyN    int                     `json:"latency_samples"`
	LatencyMs   map[string]float64      `json:"latency_ms"`
	Class1N     int                     `json:"class1_latency_samples"`
	SpansKept   map[string]int          `json:"spans_written,omitempty"`
	Measurement string                  `json:"measurement"`
}

// recordMetric is a metric's reported value plus, in a --trace 0 run, its
// median and quartiles across the run's segments.
type recordMetric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Segments *spread `json:"segments,omitempty"`
}

const cachedWriteNote = "known defect: the HTTP front end cannot mark a request NoCache, so the db broker caches UPDATE replies " +
	"and answers a repeated identical UPDATE from cache without executing it; db-rw counts each such write " +
	"(failures.cached_write) as a failed operation in error_ratio"

func deployment() map[string]any {
	return map[string]any{
		"fixture_rows": fixtureRows, "threshold": threshold, "workers": workers, "classes": classes,
		"db_cache_entries": dbCacheSize, "db_cache_ttl_s": dbCacheTTL.Seconds(),
		"cgi_process_ms": cgiProcess.Seconds() * 1e3, "cgi_max_concurrent": cgiConcurrent,
		"coalescing": false, "wire_batching": false, "program_tracing": false,
		"generator_connections": connections, "db_rw_rate": dbRWRate, "overload_rate": overloadRate,
	}
}

// run executes one benchmark invocation.
func run(cfg config) (*report, error) {
	wl, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	dur := time.Duration(cfg.seconds) * time.Second
	rec := runRecord{
		Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Revision: cfg.revision, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Deployment: deployment(), Failures: map[string]int{}, Metrics: map[string]recordMetric{},
		Notes: []string{cachedWriteNote},
	}
	var phases []*phaseOut
	metrics := map[string]float64{}
	units := e2eUnits
	if !cfg.trace {
		rec.Measurement = fmt.Sprintf("untraced; %d segments, each on its own freshly built and warmed stack; "+
			"each metric is the median across segments", segments)
		perSegment := map[string][]float64{}
		for i := 0; i < segments; i++ {
			seed := cfg.seed*segments + int64(i)
			st, d, err := setUp(wl, cfg, seed, false)
			if err != nil {
				return nil, err
			}
			out, err := runPhase(st, wl, seed, dur/segments, false)
			st.close()
			if err != nil {
				return nil, err
			}
			rec.Setups = append(rec.Setups, d.Seconds())
			phases = append(phases, out)
			for name, v := range e2eMetrics(out) {
				perSegment[name] = append(perSegment[name], v)
			}
		}
		perSegment["setup_s"] = rec.Setups
		for name, vals := range perSegment {
			sp := spreadOf(vals)
			metrics[name] = sp.Median
			rec.Metrics[name] = recordMetric{Value: sp.Median, Unit: unitOf(name), Segments: &sp}
		}
	} else {
		rec.Measurement = "first half untraced (outcome ratios, lag), second half traced (layer timings)"
		half := dur / 2
		stA, _, err := setUp(wl, cfg, cfg.seed, false)
		if err != nil {
			return nil, err
		}
		outA, err := runPhase(stA, wl, cfg.seed, half, false)
		stA.close()
		if err != nil {
			return nil, err
		}
		stB, _, err := setUp(wl, cfg, cfg.seed, true)
		if err != nil {
			return nil, err
		}
		outB, err := runPhase(stB, wl, cfg.seed, half, true)
		stB.close()
		if err != nil {
			return nil, err
		}
		phases = append(phases, outA, outB)
		units = layerUnits
		for k, v := range outcomeMetrics(outA) {
			metrics[k] = v
		}
		for k, v := range outB.layers {
			metrics[k] = v
		}
		untraced, traced := e2eMetrics(outA), e2eMetrics(outB)
		metrics["trace.overhead_pct"] = pctChange(untraced["latency_p50_ms"], traced["latency_p50_ms"])
		metrics["trace.goodput_change_pct"] = pctChange(untraced["goodput_rps"], traced["goodput_rps"])
		rec.Untraced = untraced
		delete(rec.Untraced, "heap_inuse_mb")
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, out := range phases {
		res.Attempted += out.all.sent
		res.Failed += out.all.failed
		if out.wrong > 0 {
			res.Correct = false
		}
		for k, v := range out.reasons {
			rec.Failures[k] += v
		}
		if out.readBackChecked > 0 {
			if rec.ReadBack == nil {
				rec.ReadBack = map[string]int{}
			}
			rec.ReadBack["rows_checked"] += out.readBackChecked
			rec.ReadBack["rows_wrong"] += out.readBackWrong
		}
		rec.LatencyMs = map[string]float64{} // the last phase: the last segment, or the traced half
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			rec.LatencyMs[fmt.Sprintf("p%g", 100*q)] = out.all.lat.quantile(q) / 1e6
		}
		rec.LatencyN += out.all.lat.n
		rec.Class1N += out.all.class1Lat.n
	}
	if res.Attempted == 0 {
		return nil, errors.New("no request was sent")
	}
	for _, u := range units {
		v := metrics[u.name]
		res.Metrics[u.name] = metric{Value: v, Unit: u.unit}
		rm := rec.Metrics[u.name]
		rm.Value, rm.Unit = v, u.unit
		rec.Metrics[u.name] = rm
	}
	rec.Correct, rec.Attempted, rec.Failed = res.Correct, res.Attempted, res.Failed
	rep := &report{result: res, Record: rec}
	if cfg.record != "" {
		if err := saveRecord(cfg, rep, phases); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// saveRecord writes the run record, and for a traced run its spans, into
// cfg.record.
func saveRecord(cfg config, rep *report, phases []*phaseOut) error {
	if err := os.MkdirAll(cfg.record, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.record, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace]))
	if cfg.trace {
		n, err := writeSpans(base+".spans.jsonl", phases[len(phases)-1].spans)
		if err != nil {
			return err
		}
		rep.Record.SpansKept = n
	}
	b, err := json.MarshalIndent(rep.Record, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(b, '\n'), 0o644)
}

// spansWritten caps each layer's spans in the written file.
const spansWritten = 20000

func writeSpans(path string, ts tracedSpans) (map[string]int, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	n := map[string]int{}
	line := func(layer string, s span, extra string) {
		if n[layer] >= spansWritten {
			return
		}
		n[layer]++
		fmt.Fprintf(w, `{"layer":%q,"key":"%016x","start_ns":%d,"end_ns":%d%s}`+"\n", layer, s.key, s.start, s.end, extra)
	}
	for _, c := range ts.calls {
		line("call", c.span, fmt.Sprintf(`,"due_ns":%d,"done_ns":%d`, c.due, c.done))
	}
	for _, s := range ts.residence {
		line("broker", s, "")
	}
	for _, s := range ts.backend {
		line("backend", s, fmt.Sprintf(`,"write":%t`, s.write))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return n, f.Close()
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hot-read, db-rw or overload")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.revision, "revision", "unknown", "program revision recorded in the run record")
	flag.StringVar(&cfg.record, "record", "", "directory for the run record (empty writes none)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	r := rep.Record
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t revision=%s %s GOMAXPROCS=%d nproc=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Revision, r.GoVersion, r.GOMAXPROCS, r.NProc)
	for _, name := range names {
		m := r.Metrics[name]
		if m.Segments != nil {
			fmt.Printf("%-28s %14.6g %-6s segments q1 %.6g q3 %.6g\n", name, m.Value, m.Unit, m.Segments.Q1, m.Segments.Q3)
		} else {
			fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Printf("attempted=%d failed=%d correct=%t failures=%v\n", rep.Attempted, rep.Failed, rep.Correct, r.Failures)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
