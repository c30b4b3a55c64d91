// Command perfbench is the repository's benchmark. It generates a seeded
// corpus and operation stream for one workload, starts the real
// cmd/xpathserve on a loopback port, drives it with two connections
// through a closed-loop and an open-loop phase, checks every answer, and
// prints each metric with its unit. With -trace 1 it also replays the
// workload's stream in-process through the layers' public functions and
// reports per-layer numbers. See README.md.
//
//	bash perfbench/run.sh --workload point-small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	xpath "repro"
	"repro/internal/metrics"
)

// wallCap bounds one run. A run still going then is killed and reported as
// failed, so a server that stops answering cannot hang the caller.
const wallCap = 170 * time.Second

// metricSpec is one reported metric, as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the metrics a user of the server sees, measured with
// tracing off. "heavy" is the workload's expensive operation class:
// cache-missing queries on point-small, /batch on scan-large and PUT on
// ingest-mix. Latency is gated at the median only: on the two-CPU machine
// the benchmark was defined on, tail quantiles moved by more than the
// largest allowed bound from run to run (see README.md); they are in
// reportOnly.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"heavy_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.05},
}

// perLayer are measured by the traced replay, except the server.*,
// http.* and loadgen.* metrics marked as read from the end-to-end run.
var perLayer = []metricSpec{
	{"xmltree.parse_ns_per_node", "ns", "lower", 0},
	{"xmltree.live_bytes_per_node", "B", "lower", 0},
	{"xmltree.snapshot_load_ns_per_node", "ns", "lower", 0},
	{"xmltree.snapshot_bytes_per_node", "B", "lower", 0},
	{"store.open_s", "s", "lower", 0},
	{"store.replay_ns_per_record", "ns", "lower", 0},
	{"store.put_ns", "ns", "lower", 0},
	{"store.wal_fsync_ns", "ns", "lower", 0},
	{"store.batch_ns", "ns", "lower", 0},
	{"store.compact_s", "s", "lower", 0},
	{"plan.compile_cold_ns", "ns", "lower", 0},
	{"plan.compile_hit_ns", "ns", "lower", 0},
	{"plan.cache_hit_ratio", "ratio", "higher", 0},
	{"eval.ns", "ns", "lower", 0},
	{"eval.allocs", "count", "lower", 0},
	{"eval.axis_calls", "count", "lower", 0},
	{"eval.contexts_evaluated", "count", "lower", 0},
	{"eval.result_nodes", "count", "lower", 0},
	{"xpath.materialize_ns", "ns", "lower", 0},
	{"xpath.materialize_allocs", "count", "lower", 0},
	{"server.decode_ns", "ns", "lower", 0},
	{"server.encode_ns", "ns", "lower", 0},
	{"server.encode_bytes", "B", "lower", 0},
	{"server.queue_wait_p50_ns", "ns", "lower", 0}, // e2e /stats delta
	{"server.queue_wait_p99_ns", "ns", "lower", 0}, // e2e /stats delta
	{"server.self_ns", "ns", "lower", 0},           // e2e responses
	{"http.overhead_ns", "ns", "lower", 0},         // e2e responses
	{"loadgen.late_ms", "ms", "lower", 0},          // e2e open loop
	{"replay.trace_overhead", "ratio", "lower", 0},
	{"xcheck.eval_share_gap", "ratio", "lower", 0},
}

// exact lists the metrics that repeat exactly for a given seed: counts, and
// sizes that do not depend on timing.
var exact = map[string]bool{
	"eval.allocs": true, "eval.axis_calls": true, "eval.contexts_evaluated": true,
	"eval.result_nodes": true, "eval.table_cells": true, "xpath.materialize_allocs": true,
	"xmltree.snapshot_bytes_per_node": true, "xmltree.live_bytes_per_node": true,
	"disk_bytes_per_user_byte": true, "plan.cache_hit_ratio": true,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run is the state the wall-clock watchdog needs.
type run struct {
	mu        sync.Mutex
	srv       *serverProc
	attempted atomic.Int64
	failed    atomic.Int64
	printed   bool
}

func (r *run) setServer(s *serverProc) {
	r.mu.Lock()
	r.srv = s
	r.mu.Unlock()
}

// emit prints the result line once.
func (r *run) emit(res resultOut) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.printed {
		return
	}
	r.printed = true
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: point-small, scan-large or ingest-mix")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed generates the same corpus and operation stream")
		seconds   = flag.Int("seconds", 20, "measured seconds per run")
		traceFlag = flag.Int("trace", 0, "1: also run the in-process traced replay and report the per-layer metrics")
		serverBin = flag.String("server", "", "path to the xpathserve binary")
		outDir    = flag.String("out", ".bench_build/perfbench", "directory for generated inputs, spans and results")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *serverBin == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server bin --workload point-small|scan-large|ingest-mix --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	r := &run{}
	watchdog := time.AfterFunc(wallCap, func() {
		r.mu.Lock()
		if r.srv != nil {
			r.srv.kill()
		}
		r.mu.Unlock()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded its %s wall-clock cap\n", wallCap)
		r.emit(resultOut{Attempted: r.attempted.Load() + 1, Failed: r.failed.Load() + 1, Metrics: map[string]metricOut{}})
		os.Exit(1)
	})
	res, err := r.execute(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *serverBin, *outDir)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// e2e is what the end-to-end run measured.
type e2e struct {
	setup             []float64 // seconds, one per server start
	warm, closed      []sample
	closedDur         time.Duration
	open              []sample
	compact           time.Duration
	peakRSSKB         int64
	diskBytes, xmlLen int64
	before, after     metrics.Snapshot
	breach            string
	failures          []string
}

func (r *run) execute(w *workload, seed int64, d time.Duration, traced bool, serverBin, outDir string) (resultOut, error) {
	var res resultOut
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(runDir)

	t0 := time.Now()
	c := w.build(seed)
	corpusPath, err := c.write(w, runDir)
	if err != nil {
		return res, fmt.Errorf("write corpus: %w", err)
	}
	if err := c.computeAnswers(); err != nil {
		return res, err
	}
	if w.name == "point-small" {
		// The compiled engine's answers are the reference; confirm once
		// that the server's default engine agrees with them.
		if err := c.crossCheck(xpath.EngineOptMinContext, 8); err != nil {
			return res, err
		}
	}
	c.serialize()
	// The load generator needs only the answers and PUT bodies: dropping
	// the documents keeps its own garbage collector from competing with
	// the server. The replay builds them again from the seed.
	c.docs, c.pool = nil, nil
	debug.FreeOSMemory()
	fmt.Fprintf(os.Stderr, "perfbench: inputs and expected answers ready in %.1fs\n", time.Since(t0).Seconds())

	t0 = time.Now()
	e, err := r.endToEnd(w, c, seed, d, corpusPath, serverBin, runDir)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: end-to-end run took %.1fs\n", time.Since(t0).Seconds())
	values := e2eMetrics(w, e)
	res.Attempted = int64(len(e.warm) + len(e.closed) + len(e.open))
	res.Failed = res.Attempted - int64(countOK(e.warm)+countOK(e.closed)+countOK(e.open))
	if w.durable {
		res.Attempted++ // the final POST /snapshot
		if e.compact < 0 {
			res.Failed++
		}
	}
	if e.breach != "" {
		res.Failed++
		e.failures = append(e.failures, "guard: "+e.breach)
	}
	values["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)

	var rep *replayResult
	if traced {
		spansDir := filepath.Join(outDir, "spans")
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return res, err
		}
		spansPath := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		t0 = time.Now()
		rc := w.build(seed)
		rc.want, rc.xmlLen, rc.poolXML = c.want, c.xmlLen, c.poolXML
		rep, err = runReplay(w, rc, corpusPath, runDir, spansPath, seed)
		if err != nil {
			return res, fmt.Errorf("replay: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: traced replay took %.1fs\n", time.Since(t0).Seconds())
		res.Attempted += int64(rep.ops)
		res.Failed += int64(rep.failed)
		if rep.first != "" {
			e.failures = append(e.failures, "replay: "+rep.first)
		}
		for k, v := range rep.metrics {
			values[k] = v
		}
		for k, v := range e2eLayerMetrics(e, rep) {
			values[k] = v
		}
		fmt.Printf("# traced replay: %d ops, spans in %s, tracing overhead %+.1f%%\n", rep.ops, spansPath, 100*rep.overhead)
	}

	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res.Metrics = map[string]metricOut{}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			e.failures = append(e.failures, fmt.Sprintf("metric %s not measured", s.name))
			res.Failed++
			v = 0
		}
		res.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	res.Correct = res.Failed == 0
	printReport(os.Stdout, w, seed, values, e, rep)
	for _, f := range e.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
	return res, writeResults(outDir, w, seed, traced, values, e, rep, res)
}

// setupTrials is how many times each run starts the server to time its
// set-up; the reported setup_s is the median.
const setupTrials = 3

// endToEnd starts the server setupTrials times, keeps the last one, and
// runs the warm-up, closed-loop and open-loop phases against it.
func (r *run) endToEnd(w *workload, c *corpus, seed int64, d time.Duration, corpusPath, serverBin, runDir string) (*e2e, error) {
	args := []string{"-store", corpusPath}
	if w.durable {
		// The server writes to its data directory; the replay needs the
		// generated one as it was.
		dataDir := filepath.Join(runDir, "server-data")
		if err := copyDir(corpusPath, dataDir); err != nil {
			return nil, err
		}
		corpusPath = dataDir
		args = []string{"-data", dataDir, "-fsync", "always"}
	}
	e := &e2e{}
	var srv *serverProc
	for i := 0; i < setupTrials; i++ {
		s, took, err := startServer(serverBin, args, filepath.Join(runDir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		e.setup = append(e.setup, took.Seconds())
		if i < setupTrials-1 {
			// Killed, not drained: a drain would compact the data
			// directory and change what the next start recovers.
			s.kill()
			continue
		}
		srv = s
	}
	r.setServer(srv)
	defer func() {
		srv.stop()
		r.setServer(nil)
	}()

	lg := newLoadgen(srv.base, w, c)
	defer lg.close()
	gen := newOpGen(w, c, seed, 1e9)
	disp := newDispatcher(gen, w.durable)
	count := func(ss []sample) {
		r.attempted.Add(int64(len(ss)))
		r.failed.Add(int64(len(ss) - countOK(ss)))
	}
	var err error
	if e.before, err = srv.stats(); err != nil {
		return nil, err
	}
	// The warm-up fills the compile cache and lets lazy set-up finish;
	// its answers are checked but not timed.
	e.warm, _ = lg.closedLoop(disp, time.Second, srv.alive)
	count(e.warm)
	e.closed, e.closedDur = lg.closedLoop(disp, d*2/5, srv.alive)
	count(e.closed)
	e.open = lg.openLoop(disp, w.openRate, d-d*2/5, srv.alive)
	count(e.open)

	e.xmlLen = c.liveXMLBytes(gen.state)
	if w.durable {
		took, err := lg.snapshot()
		e.compact = took
		if err != nil {
			e.compact = -1
			lg.fail("POST /snapshot: %v", err)
		}
	}
	e.diskBytes, err = diskSize(corpusPath)
	if err != nil {
		return nil, err
	}
	if srv.alive() {
		if e.after, err = srv.stats(); err != nil {
			return nil, err
		}
		e.peakRSSKB = srv.status("VmHWM")
	}
	e.breach = srv.breached()
	e.failures = lg.failures
	return e, nil
}

// windowCount is how many equal windows each phase is cut into. A phase's
// throughput and latency quantiles are the medians of their per-window
// values, so that one garbage-collection burst or one stall of the shared
// machine moves them less.
const windowCount = 4

// windowed applies f to the samples of each window of a phase, assigning a
// sample to a window by the time at(s), and returns the median result.
func windowed(ss []sample, at func(sample) time.Time, f func([]sample, time.Duration) float64) float64 {
	if len(ss) == 0 {
		return math.NaN()
	}
	lo, hi := at(ss[0]), at(ss[0])
	for _, s := range ss {
		if t := at(s); t.Before(lo) {
			lo = t
		} else if t.After(hi) {
			hi = t
		}
	}
	span := hi.Sub(lo) + 1
	parts := make([][]sample, windowCount)
	for _, s := range ss {
		k := int(int64(at(s).Sub(lo)) * windowCount / int64(span))
		parts[k] = append(parts[k], s)
	}
	var vs []float64
	for _, p := range parts {
		vs = append(vs, f(p, span/windowCount))
	}
	return median(vs)
}

// e2eMetrics computes the end-to-end metrics and the report-only ones.
func e2eMetrics(w *workload, e *e2e) map[string]float64 {
	due := func(s sample) time.Time { return s.sent.Add(-s.late) }
	done := func(s sample) time.Time { return s.sent.Add(s.lat) }
	q := func(p float64, kinds ...opKind) float64 {
		return windowed(e.open, due, func(ss []sample, _ time.Duration) float64 {
			return quantile(latencies(ss, kinds...), p)
		})
	}
	m := map[string]float64{
		"setup_s": median(e.setup),
		"throughput_ops": windowed(e.closed, done, func(ss []sample, d time.Duration) float64 {
			return float64(countOK(ss)) / d.Seconds()
		}),
		"query_p50_ms": q(0.5, opQuery, opMiss),
		"query_p90_ms": q(0.9, opQuery, opMiss),
		"query_p99_ms": quantile(latencies(e.open, opQuery, opMiss), 0.99),
		// The heavy class is 1/16 to 1/4 of the operations: too few per
		// window, so its quantiles span the whole phase, and its tail is
		// p75 because scan-large sends only about 60 batches.
		"heavy_p50_ms":             quantile(latencies(e.open, w.heavy), 0.5),
		"heavy_p75_ms":             quantile(latencies(e.open, w.heavy), 0.75),
		"peak_rss_mb":              float64(e.peakRSSKB) / 1024,
		"disk_bytes_per_user_byte": float64(e.diskBytes) / float64(e.xmlLen),
	}
	switch w.heavy {
	case opBatch:
		m["batch_p50_ms"] = m["heavy_p50_ms"]
		m["batch_p90_ms"] = quantile(latencies(e.open, opBatch), 0.9)
	case opPut:
		m["write_p50_ms"] = m["heavy_p50_ms"]
		m["write_p99_ms"] = quantile(latencies(e.open, opPut), 0.99)
		m["compact_s"] = e.compact.Seconds()
	}
	return m
}

// e2eLayerMetrics are the per-layer metrics read from the end-to-end run:
// /stats deltas and the timings each /query response carries.
func e2eLayerMetrics(e *e2e, rep *replayResult) map[string]float64 {
	qw := histDelta(e.before, e.after, "server.queue_wait_ns")
	var self, overhead []float64
	for _, s := range e.closed {
		if s.ok && (s.kind == opQuery || s.kind == opMiss) {
			self = append(self, float64(s.total-s.compile-s.eval))
			overhead = append(overhead, float64(s.lat.Nanoseconds()-s.total))
		}
	}
	var late []float64
	for _, s := range e.open {
		late = append(late, float64(s.late)/1e6)
	}
	// The replay's share of compile+evaluate time spent evaluating, next
	// to the same share from the server's own histograms.
	comp := histDelta(e.before, e.after, "server.compile_ns")
	ev := histDelta(e.before, e.after, "server.eval_ns")
	serverShare := float64(ev.Sum) / float64(ev.Sum+comp.Sum)
	var rc, re int64
	for name, st := range rep.layers {
		switch {
		case name == "plan.compile":
			rc += st.TotalNs
		case name == "store.batch" || len(name) > 5 && name[:5] == "eval.":
			re += st.TotalNs
		}
	}
	replayShare := float64(re) / float64(re+rc)
	return map[string]float64{
		"server.queue_wait_p50_ns":         histQuantile(qw, 0.5),
		"server.queue_wait_p99_ns":         histQuantile(qw, 0.99),
		"server.self_ns":                   median(self),
		"http.overhead_ns":                 median(overhead),
		"loadgen.late_ms":                  quantile(late, 0.99),
		"xcheck.eval_share_gap":            math.Abs(replayShare - serverShare),
		"xcheck.replay_eval_share":         replayShare,
		"xcheck.server_eval_share":         serverShare,
		"xcheck.server_compile_mean_ns":    histMean(comp),
		"xcheck.server_eval_mean_ns":       histMean(ev),
		"xcheck.server_queue_wait_mean_ns": histMean(qw),
		"xcheck.server_wal_fsync_mean_ns":  histMean(histDelta(e.before, e.after, "store.wal.fsync_ns")),
		"server.rejected": float64(e.after.Counters["server.rejected.queue_full"] - e.before.Counters["server.rejected.queue_full"] +
			e.after.Counters["server.rejected.draining"] - e.before.Counters["server.rejected.draining"]),
	}
}

// reportOnly are printed and recorded but not gated: failed_ratio is 0
// on every correct run, and the rest are tail latencies, a gated metric
// under the name of its workload's operation, or values too noisy or too
// often 0 to bound.
var reportOnly = []metricSpec{
	{"failed_ratio", "ratio", "lower", 0},
	{"query_p90_ms", "ms", "lower", 0},
	{"query_p99_ms", "ms", "lower", 0},
	{"heavy_p75_ms", "ms", "lower", 0},
	{"batch_p50_ms", "ms", "lower", 0},
	{"batch_p90_ms", "ms", "lower", 0},
	{"write_p50_ms", "ms", "lower", 0},
	{"write_p99_ms", "ms", "lower", 0},
	{"compact_s", "s", "lower", 0},
	{"eval.table_cells", "count", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"xcheck.replay_eval_share", "ratio", "lower", 0},
	{"xcheck.server_eval_share", "ratio", "lower", 0},
	{"xcheck.server_compile_mean_ns", "ns", "lower", 0},
	{"xcheck.server_eval_mean_ns", "ns", "lower", 0},
	{"xcheck.server_queue_wait_mean_ns", "ns", "lower", 0},
	{"xcheck.server_wal_fsync_mean_ns", "ns", "lower", 0},
}

func unitOf(name string) string {
	for _, specs := range [][]metricSpec{endToEnd, perLayer, reportOnly} {
		for _, s := range specs {
			if s.name == name {
				return s.unit
			}
		}
	}
	panic("no unit declared for " + name)
}

func printReport(out io.Writer, w *workload, seed int64, values map[string]float64, e *e2e, rep *replayResult) {
	engine := w.engine
	if engine == "" {
		engine = "server default (auto = optmincontext)"
	}
	fmt.Fprintf(out, "# workload %s seed %d: engine %s, open-loop rate %.0f ops/s, %d connections\n", w.name, seed, engine, w.openRate, connections)
	fmt.Fprintf(out, "# samples: warm-up %d, closed loop %d in %.2fs, open loop %d\n", len(e.warm), len(e.closed), e.closedDur.Seconds(), len(e.open))
	for _, name := range sortedNames(values) {
		flag := ""
		if exact[name] {
			flag = "  (exact)"
		}
		fmt.Fprintf(out, "%-36s %14.4f %s%s\n", name, values[name], unitOf(name), flag)
	}
	if rep == nil {
		return
	}
	fmt.Fprintln(out, "# per-layer self time of the traced replay's operations:")
	names := sortedNames(rep.layers)
	sort.SliceStable(names, func(i, j int) bool { return rep.layers[names[i]].SelfNs > rep.layers[names[j]].SelfNs })
	for _, n := range names {
		st := rep.layers[n]
		fmt.Fprintf(out, "#   %-24s %7d calls %12.0f ns/call self %5.1f%%\n", n, st.Calls, float64(st.SelfNs)/float64(st.Calls), 100*st.Share)
	}
}

// writeResults records everything a run measured in a JSON file next to
// the span files.
func writeResults(outDir string, w *workload, seed int64, traced bool, values map[string]float64, e *e2e, rep *replayResult, res resultOut) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type valueOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Exact bool    `json:"exact,omitempty"`
	}
	all := map[string]valueOut{}
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		all[k] = valueOut{v, unitOf(k), exact[k]}
	}
	doc := map[string]any{
		"workload": w.name, "seed": seed, "traced": traced, "engine": w.engine,
		"open_rate_ops": w.openRate, "connections": connections,
		"samples":  map[string]int{"warm": len(e.warm), "closed": len(e.closed), "open": len(e.open)},
		"setup_s":  e.setup,
		"values":   all,
		"failures": e.failures,
		"result":   res,
	}
	if rep != nil {
		doc["layers"] = rep.layers
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, t)), b, 0o644)
}

// diskSize is the size of a file, or of every file under a directory.
func diskSize(path string) (int64, error) {
	var n int64
	err := filepath.Walk(path, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of one directory into a new one.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
