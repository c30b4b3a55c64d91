package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	xpath "repro"
	"repro/internal/metrics"
	"repro/internal/server"
)

// The replay runs a workload's operation stream in-process through the
// public functions internal/server's handlers call, in the handlers'
// order, and times each call as a span. It measures the layers one by one;
// the end-to-end metrics come from the real server with tracing off.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // operation number; 0 for layer measurements outside the stream
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. When off, begin and end record nothing,
// so an untraced pass runs the same calls without the spans.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Calls   int     `json:"calls"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	Share   float64 `json:"self_share"` // of all root spans' time
}

// selfTimes sums each span name's duration and self time: its duration
// minus the time its child spans cover.
func selfTimes(spans []span) map[string]*layerStat {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	var rootNs int64
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Calls++
		st.TotalNs += d
		st.SelfNs += d - child[s.ID]
		if s.Parent == 0 {
			rootNs += d
		}
	}
	for _, st := range out {
		if rootNs > 0 {
			st.Share = float64(st.SelfNs) / float64(rootNs)
		}
	}
	return out
}

// replayer holds the in-process stack one replay drives.
type replayer struct {
	w       *workload
	c       *corpus
	eng     xpath.Engine
	st      *xpath.Store
	ds      *xpath.DurableStore // ingest-mix only
	touched map[int]bool        // documents a pass has replaced
	tr      tracer
	buf     bytes.Buffer
	failed  int
	first   string // first failure
	allocOn bool   // count allocations around evaluation and materialization

	compileHit, compileMiss int
	hitNs                   int64
	encodeBytes             int64
	evals                   int64
	stats                   xpath.Stats
	resultNodes             int64
	evalAllocs, matAllocs   uint64
}

func (r *replayer) fail(format string, args ...any) {
	r.failed++
	if r.first == "" {
		r.first = fmt.Sprintf(format, args...)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// query replays POST /query: decode, document lookup, compile through the
// cache, evaluate, materialize the result nodes, encode the response.
func (r *replayer) query(name string, doc int, src string, want answer) {
	body, _ := json.Marshal(server.QueryRequest{ID: r.c.ids[doc], Query: src, Engine: r.w.engine, Limit: r.w.limit})
	root := r.tr.begin(name, 0)
	defer r.tr.end(root)

	sp := r.tr.begin("server.decode", root)
	var req server.QueryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	r.tr.end(sp)
	if err != nil {
		r.fail("decode: %v", err)
		return
	}
	d, ok := r.st.Get(req.ID)
	if !ok {
		r.fail("no document %q", req.ID)
		return
	}

	sp = r.tr.begin("plan.compile", root)
	t0 := time.Now()
	q, hit, err := xpath.CompileCachedTraced(req.Query, nil)
	ns := int64(time.Since(t0))
	r.tr.end(sp)
	if err != nil {
		r.fail("compile %q: %v", req.Query, err)
		return
	}
	if hit {
		r.compileHit++
		r.hitNs += ns
	} else {
		r.compileMiss++
	}

	var m0 uint64
	if r.allocOn {
		m0 = mallocs()
	}
	sp = r.tr.begin("eval."+r.eng.String(), root)
	tEval := time.Now()
	res, err := q.EvaluateWith(d, xpath.Options{Engine: r.eng})
	evalNs := int64(time.Since(tEval))
	r.tr.end(sp)
	if r.allocOn {
		r.evalAllocs += mallocs() - m0
	}
	if err != nil {
		r.fail("evaluate %q: %v", req.Query, err)
		return
	}
	st := res.Stats()
	r.evals++
	r.stats.AxisCalls += st.AxisCalls
	r.stats.ContextsEvaluated += st.ContextsEvaluated
	r.stats.TableCells += st.TableCells

	if r.allocOn {
		m0 = mallocs()
	}
	sp = r.tr.begin("xpath.materialize", root)
	limit := req.Limit
	if limit <= 0 || limit > 1000 {
		limit = 1000 // the server's default MaxNodes
	}
	resp := server.QueryResponse{ID: req.ID, Engine: r.eng.String(), CacheHit: hit,
		Stats: server.StatsJSON{TableCells: st.TableCells, ContextsEvaluated: st.ContextsEvaluated, AxisCalls: st.AxisCalls}}
	if res.IsNodeSet() {
		resp.Kind = "node-set"
		nodes := res.Nodes()
		resp.Count = len(nodes)
		if len(nodes) > limit {
			nodes = nodes[:limit]
		}
		resp.Nodes = make([]server.NodeJSON, len(nodes))
		for i, n := range nodes {
			v := n.StringValue()
			if len(v) > 120 {
				v = v[:117] + "..."
			}
			resp.Nodes[i] = server.NodeJSON{Pre: n.Pre(), Label: n.Label(), Value: v}
		}
	} else {
		resp.Kind = "scalar"
		resp.Value = res.Text()
	}
	r.tr.end(sp)
	if r.allocOn {
		r.matAllocs += mallocs() - m0
	}
	r.resultNodes += int64(resp.Count)

	sp = r.tr.begin("server.encode", root)
	resp.Timings = server.TimingsJSON{CompileNs: ns, EvalNs: evalNs, TotalNs: int64(time.Since(t0))}
	r.buf.Reset()
	err = json.NewEncoder(&r.buf).Encode(resp)
	r.tr.end(sp)
	if err != nil {
		r.fail("encode: %v", err)
		return
	}
	r.encodeBytes += int64(r.buf.Len())
	if got := (answer{kind: resp.Kind, count: resp.Count, value: resp.Value}); got != want {
		r.fail("%q on %s: got %+v, want %+v", src, r.c.ids[doc], got, want)
	}
}

// batch replays POST /batch: decode, Store.Query, encode.
func (r *replayer) batch(o op) {
	body, _ := json.Marshal(server.BatchRequest{Query: o.query, Engine: r.w.engine})
	root := r.tr.begin("op.batch", 0)
	defer r.tr.end(root)
	sp := r.tr.begin("server.decode", root)
	var req server.BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	r.tr.end(sp)
	if err != nil {
		r.fail("decode: %v", err)
		return
	}
	sp = r.tr.begin("store.batch", root)
	res, err := r.st.Query(req.Query, xpath.BatchOptions{Engine: r.eng})
	r.tr.end(sp)
	if err != nil {
		r.fail("batch %q: %v", req.Query, err)
		return
	}
	sp = r.tr.begin("server.encode", root)
	resp := server.BatchResponse{Engine: r.eng.String(), Docs: make([]server.BatchDocJSON, len(res.Docs)), Errors: res.Errs()}
	for i, dr := range res.Docs {
		dj := server.BatchDocJSON{ID: dr.ID}
		switch {
		case dr.Err != nil:
			dj.Error = dr.Err.Error()
		case dr.Result.IsNodeSet():
			dj.Kind, dj.Count = "node-set", len(dr.Result.Nodes())
		default:
			dj.Kind, dj.Value = "scalar", dr.Result.Text()
		}
		resp.Docs[i] = dj
	}
	r.buf.Reset()
	err = json.NewEncoder(&r.buf).Encode(resp)
	r.tr.end(sp)
	if err != nil {
		r.fail("encode: %v", err)
		return
	}
	for i, dj := range resp.Docs {
		if want := r.c.want[i][o.q]; dj.Error != "" || (answer{kind: dj.Kind, count: dj.Count, value: dj.Value}) != want {
			r.fail("batch %q: document %s is %+v, want %+v", o.query, dj.ID, dj, want)
			return
		}
	}
}

// put replays PUT /doc/{id}: parse the body, then DurableStore.Put (WAL
// append, fsync, swap); the follow-up read replays as its own operation.
func (r *replayer) put(o op) {
	root := r.tr.begin("op.put", 0)
	sp := r.tr.begin("xmltree.parse", root)
	d, err := xpath.ParseDocument(bytes.NewReader(r.c.poolXML[o.pool]))
	r.tr.end(sp)
	if err != nil {
		r.tr.end(root)
		r.fail("parse: %v", err)
		return
	}
	sp = r.tr.begin("store.put", root)
	r.touched[o.doc] = true
	_, err = r.ds.Put(r.c.ids[o.doc], d)
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		r.fail("put: %v", err)
		return
	}
	r.query("op.verify", o.doc, o.query, o.want)
}

func (r *replayer) do(o op) {
	switch o.kind {
	case opQuery, opMiss:
		r.query("op."+o.kind.String(), o.doc, o.query, o.want)
	case opBatch:
		r.batch(o)
	case opPut:
		r.put(o)
	}
}

// replayResult is what one replay measured.
type replayResult struct {
	metrics  map[string]float64
	layers   map[string]*layerStat
	ops      int
	failed   int
	first    string
	overhead float64 // traced pass time over untraced pass time, minus 1
}

// replayStream returns the first w.replayOps operations of the stream,
// with literals from litBase.
func replayStream(w *workload, c *corpus, seed, litBase int64) []op {
	g := newOpGen(w, c, seed, litBase)
	ops := make([]op, w.replayOps)
	for k := range ops {
		ops[k] = g.next()
	}
	return ops
}

// runReplay measures the layers in-process. It runs three passes over the
// same operations: one counting allocations (which also warms the caches),
// one untraced and one traced; the traced pass gives the per-layer times
// and the spans written to spansPath.
func runReplay(w *workload, c *corpus, corpusPath, runDir, spansPath string, seed int64) (*replayResult, error) {
	eng := xpath.EngineAuto
	if w.engine != "" {
		eng, _ = xpath.EngineByName(w.engine)
	}
	r := &replayer{w: w, c: c, eng: eng, touched: map[int]bool{}, tr: tracer{t0: time.Now()}}
	m := map[string]float64{}
	r.tr.on = true
	if err := measureXMLTree(r, m); err != nil {
		return nil, err
	}
	if err := measureStore(r, m, corpusPath, runDir); err != nil {
		return nil, err
	}
	if r.ds != nil {
		defer r.ds.Close()
	}

	passes := []struct {
		traced, allocs bool
	}{{false, true}, {false, false}, {true, false}}
	var res replayResult
	var walBefore metrics.Snapshot
	var tracedNs, plainNs int64
	for p, pass := range passes {
		ops := replayStream(w, c, seed, int64(p+2)*1e9)
		r.tr.on, r.allocOn = pass.traced, pass.allocs
		if pass.traced {
			// Count only the traced pass's calls.
			r.compileHit, r.compileMiss, r.hitNs, r.encodeBytes = 0, 0, 0, 0
			r.evals, r.stats, r.resultNodes = 0, xpath.Stats{}, 0
			walBefore = metrics.Default().Snapshot()
		}
		runtime.GC()
		t0 := time.Now()
		for k, o := range ops {
			r.tr.op = k + 1
			r.do(o)
		}
		elapsed := int64(time.Since(t0))
		res.ops += len(ops)
		switch {
		case pass.traced:
			tracedNs = elapsed
		case pass.allocs:
			if r.evals > 0 {
				m["eval.allocs"] = float64(r.evalAllocs) / float64(r.evals)
				m["xpath.materialize_allocs"] = float64(r.matAllocs) / float64(r.evals)
			}
		default:
			plainNs = elapsed
		}
		if r.ds != nil && p < len(passes)-1 {
			if err := r.restore(); err != nil {
				return nil, err
			}
		}
	}
	res.overhead = float64(tracedNs)/float64(plainNs) - 1
	var stream []span
	for _, s := range r.tr.spans {
		if s.Op > 0 {
			stream = append(stream, s)
		}
	}
	layers := selfTimes(stream)
	mean := func(name string) float64 {
		if st := layers[name]; st != nil && st.Calls > 0 {
			return float64(st.TotalNs) / float64(st.Calls)
		}
		return 0
	}
	m["plan.compile_cold_ns"] = compileCold(c)
	m["plan.compile_hit_ns"] = float64(r.hitNs) / float64(r.compileHit)
	m["plan.cache_hit_ratio"] = float64(r.compileHit) / float64(r.compileHit+r.compileMiss)
	m["eval.ns"] = mean("eval." + eng.String())
	m["eval.axis_calls"] = float64(r.stats.AxisCalls) / float64(r.evals)
	m["eval.contexts_evaluated"] = float64(r.stats.ContextsEvaluated) / float64(r.evals)
	m["eval.table_cells"] = float64(r.stats.TableCells) / float64(r.evals)
	m["eval.result_nodes"] = float64(r.resultNodes) / float64(r.evals)
	m["xpath.materialize_ns"] = mean("xpath.materialize")
	m["server.decode_ns"] = mean("server.decode")
	m["server.encode_ns"] = mean("server.encode")
	m["server.encode_bytes"] = float64(r.encodeBytes) / float64(layers["server.encode"].Calls)
	if st := layers["store.batch"]; st != nil && st.Calls > 0 {
		m["store.batch_ns"] = mean("store.batch")
	}
	if r.ds != nil {
		m["store.put_ns"] = mean("store.put")
		m["store.wal_fsync_ns"] = histMean(histDelta(walBefore, metrics.Default().Snapshot(), "store.wal.fsync_ns"))
		t0 := time.Now()
		if _, err := r.ds.Compact(); err != nil {
			return nil, err
		}
		m["store.compact_s"] = time.Since(t0).Seconds()
	}
	m["replay.trace_overhead"] = res.overhead

	if err := writeSpans(spansPath, r.tr.spans); err != nil {
		return nil, err
	}
	res.metrics, res.layers, res.failed, res.first = m, layers, r.failed, r.first
	return &res, nil
}

// restore puts every document a pass replaced back to its content at the
// start of the replay, so that each pass sees the same corpus.
func (r *replayer) restore() error {
	for i := range r.touched {
		if _, err := r.ds.Put(r.c.ids[i], r.c.contentDoc(r.c.content(i, r.c.state[i]))); err != nil {
			return err
		}
	}
	clear(r.touched)
	return nil
}

// compileCold is the mean time of an uncached compile over the
// workload's query set.
func compileCold(c *corpus) float64 {
	const rounds = 20
	srcs := c.sources()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, s := range srcs {
			xpath.Compile(s)
		}
	}
	return float64(time.Since(t0)) / float64(rounds*len(srcs))
}

// xmlSampleNodes bounds the documents the xmltree measurements parse.
const xmlSampleNodes = 200000

// measureXMLTree times parsing and snapshot decoding over a sample of the
// corpus, and measures the live heap the parsed documents hold.
func measureXMLTree(r *replayer, m map[string]float64) error {
	var xmls [][]byte
	nodes := 0
	for _, d := range r.c.docs {
		if nodes >= xmlSampleNodes {
			break
		}
		xmls = append(xmls, xmlOf(d))
		nodes += d.Size()
	}
	parsed := make([]*xpath.Document, len(xmls))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var parseNs int64
	for i, x := range xmls {
		sp := r.tr.begin("xmltree.parse", 0)
		t0 := time.Now()
		d, err := xpath.ParseDocument(bytes.NewReader(x))
		parseNs += int64(time.Since(t0))
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("parse sample document: %w", err)
		}
		parsed[i] = d
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["xmltree.parse_ns_per_node"] = float64(parseNs) / float64(nodes)
	m["xmltree.live_bytes_per_node"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(nodes)

	var snapBytes, loadNs int64
	var buf bytes.Buffer
	for _, d := range parsed {
		buf.Reset()
		if err := d.WriteSnapshot(&buf); err != nil {
			return err
		}
		snapBytes += int64(buf.Len())
		sp := r.tr.begin("xmltree.load_snapshot", 0)
		t0 := time.Now()
		_, err := xpath.LoadSnapshot(bytes.NewReader(buf.Bytes()))
		loadNs += int64(time.Since(t0))
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	m["xmltree.snapshot_load_ns_per_node"] = float64(loadNs) / float64(nodes)
	m["xmltree.snapshot_bytes_per_node"] = float64(snapBytes) / float64(nodes)
	return nil
}

// storeSampleDocs is how many documents the read-only workloads write
// through a scratch durable store to price the WAL, replay and compaction.
const storeSampleDocs = 64

// measureStore opens the corpus the way the server does, and prices the
// durable store's write path. ingest-mix replays its own data directory;
// the read-only workloads, which never write, use a scratch store filled
// with a sample of their documents.
func measureStore(r *replayer, m map[string]float64, corpusPath, runDir string) error {
	if r.w.durable {
		dir := filepath.Join(runDir, "replay-data")
		if err := copyDir(corpusPath, dir); err != nil {
			return err
		}
		before := metrics.Default().Snapshot()
		sp := r.tr.begin("store.open", 0)
		t0 := time.Now()
		ds, err := xpath.OpenStore(dir, xpath.DurableOptions{Sync: xpath.SyncAlways})
		openNs := int64(time.Since(t0))
		r.tr.end(sp)
		if err != nil {
			return err
		}
		after := metrics.Default().Snapshot()
		r.ds, r.st = ds, ds.Store()
		m["store.open_s"] = float64(openNs) / 1e9
		recs := after.Counters["store.wal.replayed_records"] - before.Counters["store.wal.replayed_records"]
		load := histDelta(before, after, "store.snapshot.load_ns").Sum
		m["store.replay_ns_per_record"] = float64(openNs-load) / float64(recs)
		batchLayer(r, m)
		return nil
	}

	sp := r.tr.begin("store.open", 0)
	t0 := time.Now()
	st, err := xpath.LoadStoreFile(corpusPath)
	openNs := int64(time.Since(t0))
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.st = st
	m["store.open_s"] = float64(openNs) / 1e9

	dir := filepath.Join(runDir, "replay-scratch")
	ds, err := xpath.OpenStore(dir, xpath.DurableOptions{Sync: xpath.SyncAlways})
	if err != nil {
		return err
	}
	before := metrics.Default().Snapshot()
	var putNs int64
	n := min(storeSampleDocs, len(r.c.docs))
	for i := 0; i < n; i++ {
		sp := r.tr.begin("store.put", 0)
		t0 := time.Now()
		_, err := ds.Put(r.c.ids[i], r.c.docs[i])
		putNs += int64(time.Since(t0))
		r.tr.end(sp)
		if err != nil {
			ds.Close()
			return err
		}
	}
	m["store.put_ns"] = float64(putNs) / float64(n)
	m["store.wal_fsync_ns"] = histMean(histDelta(before, metrics.Default().Snapshot(), "store.wal.fsync_ns"))
	if err := ds.Close(); err != nil {
		return err
	}
	sp = r.tr.begin("store.open", 0)
	t0 = time.Now()
	ds, err = xpath.OpenStore(dir, xpath.DurableOptions{Sync: xpath.SyncAlways})
	replayNs := int64(time.Since(t0))
	r.tr.end(sp)
	if err != nil {
		return err
	}
	defer ds.Close()
	m["store.replay_ns_per_record"] = float64(replayNs) / float64(n)
	sp = r.tr.begin("store.compact", 0)
	t0 = time.Now()
	_, err = ds.Compact()
	m["store.compact_s"] = time.Since(t0).Seconds()
	r.tr.end(sp)
	if err != nil {
		return err
	}
	batchLayer(r, m)
	return nil
}

// batchLayer times Store.Query of the first query over the whole corpus,
// for the workloads whose stream sends no /batch (scan-large's stream
// batches replace this figure).
func batchLayer(r *replayer, m map[string]float64) {
	var ns []float64
	for i := 0; i < 3; i++ {
		sp := r.tr.begin("store.batch", 0)
		t0 := time.Now()
		res, err := r.st.Query(r.c.queries[0], xpath.BatchOptions{Engine: r.eng})
		ns = append(ns, float64(time.Since(t0)))
		r.tr.end(sp)
		if err != nil || res.Errs() > 0 {
			r.fail("batch %q failed", r.c.queries[0])
		}
	}
	m["store.batch_ns"] = median(ns)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
