package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	xpath "repro"
	synth "repro/internal/workload"
	"repro/internal/xmltree"
)

// A workload is one traffic mix: the corpus the server starts with, the
// requests the load generator sends, and the open-loop rate it sends them
// at. README.md gives the reason for each choice.
type workload struct {
	name string
	// engine is the engine /query and /batch requests name ("" leaves the
	// choice to the server's default).
	engine string
	// limit is the node limit /query requests carry (0: the server's).
	limit int
	// openRate is the open-loop arrival rate over both connections, in
	// ops/s, fixed so that later commits are offered the same load. It is
	// about a quarter of the closed-loop capacity measured when the
	// benchmark was defined, and a third of the lowest capacity seen while
	// the shared machine was busy: at half, a slow spell of the machine or
	// a garbage collection pushed the server into queueing and the tail
	// latencies varied several-fold between runs.
	openRate float64
	// replayOps is how many operations of the stream one pass
	// of the in-process replay (-trace 1) runs.
	replayOps int
	// heavy is the workload's expensive operation class, whose latency
	// the heavy_* metrics report.
	heavy opKind
	// durable serves the corpus from a -data directory (snapshot plus WAL)
	// instead of a read-only -store snapshot file.
	durable bool
	build   func(seed int64) *corpus
	// slots is the size of one round of the workload's operation mix, and
	// next turns a slot of the round into an operation.
	slots func(c *corpus) int
	next  func(g *opGen, slot int) op
}

var workloads = []*workload{
	{
		name: "point-small", heavy: opMiss, openRate: 350, replayOps: 3000,
		build: buildPointSmall, slots: pointSlots, next: nextPointSmall,
	},
	{
		name: "scan-large", engine: "compiled", limit: 10, heavy: opBatch, openRate: 40, replayOps: 120,
		build: buildScanLarge, slots: scanSlots, next: nextScanLarge,
	},
	{
		name: "ingest-mix", heavy: opPut, openRate: 80, durable: true, replayOps: 300,
		build: buildIngestMix, slots: ingestSlots, next: nextIngestMix,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Corpus sizes. ingest-mix is half the size first proposed for it (1000
// documents, 2000 WAL records) so that three recoveries per run fit the
// benchmark's time budget; the ratio of WAL records to documents is kept.
const (
	pointDocs    = 2000
	scanNodes    = 20000
	scanRandom   = 3 // Random documents next to the one Scaled document
	ingestDocs   = 500
	ingestNodes  = 1000
	ingestPool   = 256
	ingestWALRec = 1000
)

// The point-small and ingest-mix query set: the Core, Extended Wadler and
// Full XPath families plus the paper's running positional query.
func pointQueries() []string {
	qs := append([]string{}, synth.CoreQueries()...)
	qs = append(qs, synth.WadlerQueries()...)
	qs = append(qs, synth.FullXPathQueries()...)
	return append(qs, synth.PositionHeavy())
}

// ingestQueries drops the one pointQueries member that is quadratic in
// |D| (about 16 ms at 1000 nodes, more than a WAL fsync), so that reads
// stay beside the writes instead of dominating them.
func ingestQueries() []string {
	var qs []string
	for _, q := range pointQueries() {
		if q != synth.WadlerQueries()[3] {
			qs = append(qs, q)
		}
	}
	return qs
}

// scanQueries are evaluation-heavy on 20k-node documents: descendant scans,
// positional predicates, = 100 comparisons, sum/count and string-value
// predicates, each between about 0.5 and 60 ms on the compiled engine.
var scanQueries = []string{
	`/descendant::c`,
	`//b//d`,
	`/descendant::b/child::c[position() = last()]`,
	`/descendant::*[position() mod 100 = 0]`,
	`/descendant::b[child::d = 100]/child::c[position() = 2]`,
	`/descendant::d[self::* = 100]`,
	`//c[. = 100]`,
	`sum(/descendant::d)`,
	`count(//c)`,
	`/descendant::b[count(child::c) > 1]/child::d`,
	`/descendant::*[sum(child::d) >= 100]`,
	`/descendant::c[string-length(string()) > 3]`,
}

// missTemplates are queries whose %d literal makes every request's source
// text new, so it misses the compile cache. The literal never matches:
// documents hold only digits and spaces, and counts and sums of
// non-negative numbers are never negative. The answer is therefore the
// same for every literal.
var missTemplates = []string{
	`/descendant::d[self::* = 100 or self::* = "u%d"]`,
	`/descendant::b[count(child::c) > 1 or count(child::c) = -%d]/child::d`,
	`/descendant::c[string-length(string()) > 3 or string() = "u%d"]`,
	`/descendant::*[sum(child::d) >= 100 or sum(child::d) = -%d]`,
}

// verifyQuery is the read that follows every PUT: a scalar that differs
// between two random documents with high probability, so it shows whether
// the server serves the new document.
const verifyQuery = `count(/descendant::*) * 1000000 + count(//c[. = 100]) * 1000 + count(//d)`

// answer is the part of a /query response the benchmark checks.
type answer struct {
	kind  string // node-set or scalar
	count int
	value string
}

// corpus is one workload's generated input.
type corpus struct {
	ids  []string
	docs []*xpath.Document // original document per ID
	// pool holds the replacement documents ingest-mix PUTs.
	pool []*xpath.Document
	// state is the content each ID holds once the WAL tail is applied:
	// -1 for the original document, otherwise a pool index.
	state []int
	// tail lists the WAL tail's replace records as (doc, pool) pairs.
	tail    [][2]int
	queries []string
	misses  []string
	// want holds the expected answer per content and query. Contents are
	// the documents followed by the pool; queries are the queries, then
	// the miss templates, then verifyQuery.
	want [][]answer
	// xmlLen is the XML size of each content; poolXML the PUT body of each
	// pool document.
	xmlLen  []int
	poolXML [][]byte
}

func (c *corpus) content(doc, state int) int {
	if state < 0 {
		return doc
	}
	return len(c.ids) + state
}

func (c *corpus) contentDoc(k int) *xpath.Document {
	if k < len(c.ids) {
		return c.docs[k]
	}
	return c.pool[k-len(c.ids)]
}

func (c *corpus) missIndex(t int) int { return len(c.queries) + t }
func (c *corpus) verifyIndex() int    { return len(c.queries) + len(c.misses) }

// sources lists every query in want's column order, miss templates filled
// with a representative literal.
func (c *corpus) sources() []string {
	srcs := append([]string{}, c.queries...)
	for _, t := range c.misses {
		srcs = append(srcs, fmt.Sprintf(t, 1))
	}
	if len(c.pool) > 0 {
		srcs = append(srcs, verifyQuery)
	}
	return srcs
}

func (c *corpus) liveXMLBytes(state []int) int64 {
	var n int64
	for i := range c.ids {
		n += int64(c.xmlLen[c.content(i, state[i])])
	}
	return n
}

// serialize fills xmlLen and poolXML.
func (c *corpus) serialize() {
	for k := 0; k < len(c.docs)+len(c.pool); k++ {
		x := xmlOf(c.contentDoc(k))
		c.xmlLen = append(c.xmlLen, len(x))
		if k >= len(c.docs) {
			c.poolXML = append(c.poolXML, x)
		}
	}
}

// xmlOf serializes a generated document. The generators never put text
// and child elements in one element and write only digits and spaces, so
// an element's content is its children or, for a leaf, its string-value,
// and nothing needs escaping. It equals Document.XML (the seed test checks
// this), which is too slow to call for every document of a run.
func xmlOf(d *xpath.Document) []byte {
	var b bytes.Buffer
	var write func(n *xmltree.Node)
	write = func(n *xmltree.Node) {
		b.WriteString("<" + n.Label())
		for _, a := range n.Attrs() {
			b.WriteString(" " + a.Name + `="` + a.Value + `"`)
		}
		b.WriteByte('>')
		if kids := n.Children(); len(kids) > 0 {
			for _, k := range kids {
				write(k)
			}
		} else {
			b.WriteString(n.StringValue())
		}
		b.WriteString("</" + n.Label() + ">")
	}
	for _, k := range d.Tree().Root().Children() {
		write(k)
	}
	return b.Bytes()
}

// mix derives independent generator seeds from one workload seed.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func buildPointSmall(seed int64) *corpus {
	rng := rand.New(rand.NewSource(mix(seed, 0)))
	c := &corpus{queries: pointQueries(), misses: missTemplates}
	for i := 0; i < pointDocs; i++ {
		n := 100 + rng.Intn(301)
		var d *xmltree.Document
		if rng.Intn(3) == 0 {
			d = synth.Scaled(n)
		} else {
			d = synth.Random(n, rng.Int63())
		}
		c.ids = append(c.ids, fmt.Sprintf("p%04d", i))
		c.docs = append(c.docs, xpath.WrapTree(d))
	}
	c.state = originals(len(c.docs))
	return c
}

// originals is the state of n documents none of which has been replaced.
func originals(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

func buildScanLarge(seed int64) *corpus {
	rng := rand.New(rand.NewSource(mix(seed, 0)))
	c := &corpus{queries: scanQueries}
	c.ids = append(c.ids, "s0")
	c.docs = append(c.docs, xpath.WrapTree(synth.Scaled(scanNodes)))
	for i := 1; i <= scanRandom; i++ {
		c.ids = append(c.ids, fmt.Sprintf("s%d", i))
		c.docs = append(c.docs, xpath.WrapTree(synth.Random(scanNodes, rng.Int63())))
	}
	c.state = originals(len(c.docs))
	return c
}

func buildIngestMix(seed int64) *corpus {
	rng := rand.New(rand.NewSource(mix(seed, 0)))
	c := &corpus{queries: ingestQueries()}
	for i := 0; i < ingestDocs; i++ {
		c.ids = append(c.ids, fmt.Sprintf("i%04d", i))
		c.docs = append(c.docs, xpath.WrapTree(synth.Random(ingestNodes, rng.Int63())))
	}
	for i := 0; i < ingestPool; i++ {
		c.pool = append(c.pool, xpath.WrapTree(synth.Random(ingestNodes, rng.Int63())))
	}
	c.state = originals(len(c.docs))
	for i := 0; i < ingestWALRec; i++ {
		d, p := rng.Intn(len(c.docs)), rng.Intn(len(c.pool))
		c.tail = append(c.tail, [2]int{d, p})
		c.state[d] = p
	}
	return c
}

// write puts the corpus on disk in the form the server is started from and
// returns the path to pass it: a snapshot file for -store, or a data
// directory (snapshot plus a WAL tail of replace records) for -data.
func (c *corpus) write(w *workload, dir string) (string, error) {
	if !w.durable {
		st := xpath.NewStore()
		for i, id := range c.ids {
			if err := st.Add(id, c.docs[i]); err != nil {
				return "", err
			}
		}
		path := filepath.Join(dir, "corpus.xpc")
		return path, st.SaveSnapshotFile(path)
	}
	path := filepath.Join(dir, "data")
	ds, err := xpath.OpenStore(path, xpath.DurableOptions{Sync: xpath.SyncNever})
	if err != nil {
		return "", err
	}
	for i, id := range c.ids {
		if _, err := ds.Put(id, c.docs[i]); err != nil {
			ds.Close()
			return "", err
		}
	}
	if _, err := ds.Compact(); err != nil {
		ds.Close()
		return "", err
	}
	for _, r := range c.tail {
		if _, err := ds.Put(c.ids[r[0]], c.pool[r[1]]); err != nil {
			ds.Close()
			return "", err
		}
	}
	return path, ds.Close()
}

func answerOf(res *xpath.Result) answer {
	if res.IsNodeSet() {
		return answer{kind: "node-set", count: len(res.Nodes())}
	}
	return answer{kind: "scalar", value: res.Text()}
}

// computeAnswers evaluates every query on every content with the compiled
// engine, on two goroutines.
func (c *corpus) computeAnswers() error {
	srcs := c.sources()
	qs := make([]*xpath.Query, len(srcs))
	for i, s := range srcs {
		q, err := xpath.Compile(s)
		if err != nil {
			return err
		}
		qs[i] = q
	}
	n := len(c.docs) + len(c.pool)
	c.want = make([][]answer, n)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < n; k += 2 {
				row := make([]answer, len(qs))
				for j, q := range qs {
					res, err := q.EvaluateWith(c.contentDoc(k), xpath.Options{Engine: xpath.EngineCompiled})
					if err != nil {
						errs[g] = fmt.Errorf("expected answer of %q: %w", srcs[j], err)
						return
					}
					row[j] = answerOf(res)
				}
				c.want[k] = row
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// crossCheck re-evaluates every query on the first docs documents with the
// given engine and reports the first disagreement with the compiled
// engine's answers.
func (c *corpus) crossCheck(eng xpath.Engine, docs int) error {
	srcs := c.sources()
	for j, s := range srcs {
		q, err := xpath.Compile(s)
		if err != nil {
			return err
		}
		for k := 0; k < docs && k < len(c.docs); k++ {
			res, err := q.EvaluateWith(c.docs[k], xpath.Options{Engine: eng})
			if err != nil {
				return fmt.Errorf("cross-check %q on %s: %w", s, c.ids[k], err)
			}
			if got := answerOf(res); got != c.want[k][j] {
				return fmt.Errorf("cross-check %q on %s: %s gives %+v, compiled gives %+v", s, c.ids[k], eng, got, c.want[k][j])
			}
		}
	}
	return nil
}

type opKind int

const (
	opQuery opKind = iota // POST /query on a cached query
	opMiss                // POST /query whose source text is new
	opBatch               // POST /batch over every document
	opPut                 // PUT /doc/{id}, then a /query that must see it
)

var opNames = [...]string{"query", "miss", "batch", "put"}

func (k opKind) String() string { return opNames[k] }

// op is one operation of a stream, with the answer the server must give.
type op struct {
	kind  opKind
	doc   int    // document index (query, miss, put)
	q     int    // column of want (query, miss, batch)
	query string // source text sent (query, miss, batch)
	pool  int    // replacement document (put)
	want  answer // expected /query answer, or the follow-up read's (put)
}

// opGen generates a run's operation stream and the answer each operation
// must get, tracking which content every document holds as PUTs replace
// them. The load generator keeps operations on one document in stream
// order, so each expected answer is exact.
type opGen struct {
	w      *workload
	c      *corpus
	rng    *rand.Rand
	state  []int
	lit    int64 // next literal for a cache-missing query
	slots  deck  // which kind of operation, and on which query, comes next
	misses deck  // which miss template comes next
	docs   deck  // which document comes next, where a workload deals them
}

// newOpGen returns the stream of a run. litBase separates the literals of
// runs that share one compile cache.
func newOpGen(w *workload, c *corpus, seed, litBase int64) *opGen {
	g := &opGen{
		w:     w,
		c:     c,
		rng:   rand.New(rand.NewSource(mix(seed, 1))),
		state: append([]int(nil), c.state...),
		lit:   litBase,
	}
	g.slots = deck{rng: g.rng, n: w.slots(c)}
	g.misses = deck{rng: g.rng, n: len(c.misses)}
	g.docs = deck{rng: g.rng, n: len(c.ids)}
	return g
}

// deck deals 0..n-1 in a fresh random order each round, so that over every
// round each operation class has exactly its share of a stream: run-to-run
// differences then come from the system, not from the draw.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	v := d.order[0]
	d.order = d.order[1:]
	return v
}

func (g *opGen) next() op { return g.w.next(g, g.slots.next()) }

// anyDoc picks a document uniformly.
func (g *opGen) anyDoc() int { return g.rng.Intn(len(g.c.ids)) }

func (g *opGen) query(doc, q int) op {
	return op{kind: opQuery, doc: doc, q: q, query: g.c.queries[q],
		want: g.c.want[g.c.content(doc, g.state[doc])][q]}
}

// point-small: a round holds each query 15 times and 13 cache-missing
// queries, so 1 operation in 16 misses the compile cache.
func pointSlots(c *corpus) int { return 16 * len(c.queries) }

func nextPointSmall(g *opGen, slot int) op {
	doc := g.anyDoc()
	nq := len(g.c.queries)
	if slot >= nq {
		return g.query(doc, slot%nq)
	}
	t := g.misses.next()
	lit := g.lit
	g.lit++
	return op{kind: opMiss, doc: doc, q: g.c.missIndex(t), query: fmt.Sprintf(g.c.misses[t], lit),
		want: g.c.want[doc][g.c.missIndex(t)]}
}

// scanBatch is the scanQueries member every /batch sends: one query, so
// that the batch latency quantiles measure the fan-out over a fixed amount
// of evaluation (about 4 ms per document) instead of a mix.
const scanBatch = 9

// scan-large: a round holds each query 7 times and 12 batches, so 1
// operation in 8 is a batch; documents come from a deck of their own.
func scanSlots(c *corpus) int { return 8 * len(c.queries) }

func nextScanLarge(g *opGen, slot int) op {
	nq := len(g.c.queries)
	if slot < nq {
		return op{kind: opBatch, q: scanBatch, query: g.c.queries[scanBatch]}
	}
	return g.query(g.docs.next(), slot%nq)
}

// ingest-mix: a round holds each query 3 times and as many PUTs as
// queries, so 1 operation in 4 is a PUT.
func ingestSlots(c *corpus) int { return 4 * len(c.queries) }

func nextIngestMix(g *opGen, slot int) op {
	doc := g.anyDoc()
	nq := len(g.c.queries)
	if slot >= nq {
		return g.query(doc, slot%nq)
	}
	p := g.rng.Intn(len(g.c.poolXML))
	g.state[doc] = p
	return op{kind: opPut, doc: doc, pool: p, q: g.c.verifyIndex(), query: verifyQuery,
		want: g.c.want[g.c.content(doc, p)][g.c.verifyIndex()]}
}
