package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// connections is how many connections the load generator opens: the
// machine the benchmark was defined on has two CPUs.
const connections = 2

// sample is one operation's outcome.
type sample struct {
	kind opKind
	// lat runs from when the operation was due (open loop) or sent (closed
	// loop) to its response; for a PUT, to the PUT's response.
	lat time.Duration
	// late is how long after its due time the operation was sent.
	late time.Duration
	ok   bool
	sent time.Time // when the operation was sent
	// Server-side timings of a /query response, in ns.
	total, compile, eval int64
}

// loadgen drives one server over loopback, on at most `connections`
// connections, and checks every answer.
type loadgen struct {
	base string
	hc   *http.Client
	w    *workload
	c    *corpus

	mu       sync.Mutex
	failures []string // first few failure descriptions
}

func newLoadgen(base string, w *workload, c *corpus) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true}
	return &loadgen{base: base, hc: &http.Client{Transport: tr, Timeout: 20 * time.Second}, w: w, c: c}
}

func (lg *loadgen) close() { lg.hc.CloseIdleConnections() }

func (lg *loadgen) fail(format string, args ...any) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if len(lg.failures) < 5 {
		lg.failures = append(lg.failures, fmt.Sprintf(format, args...))
	}
}

// reply is the part of a /query or /batch response the benchmark reads.
type reply struct {
	Kind    string                `json:"kind"`
	Count   int                   `json:"count"`
	Value   string                `json:"value"`
	Timings server.TimingsJSON    `json:"timings"`
	Docs    []server.BatchDocJSON `json:"docs"`
}

func (lg *loadgen) send(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, lg.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lg.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (lg *loadgen) query(doc int, src string, want answer) (reply, error) {
	body, _ := json.Marshal(server.QueryRequest{ID: lg.c.ids[doc], Query: src, Engine: lg.w.engine, Limit: lg.w.limit})
	var r reply
	if err := lg.send("POST", "/query", body, &r); err != nil {
		return r, err
	}
	if got := (answer{kind: r.Kind, count: r.Count, value: r.Value}); got != want {
		return r, fmt.Errorf("%q on %s: got %+v, want %+v", src, lg.c.ids[doc], got, want)
	}
	return r, nil
}

// do performs one operation and checks its answer. end is when the
// operation's measured part completed.
func (lg *loadgen) do(o op) (r reply, end time.Time, err error) {
	switch o.kind {
	case opQuery, opMiss:
		r, err = lg.query(o.doc, o.query, o.want)
		return r, time.Now(), err
	case opBatch:
		body, _ := json.Marshal(server.BatchRequest{Query: o.query, Engine: lg.w.engine})
		if err = lg.send("POST", "/batch", body, &r); err != nil {
			return r, time.Now(), err
		}
		end = time.Now()
		if len(r.Docs) != len(lg.c.ids) {
			return r, end, fmt.Errorf("batch %q: %d documents, want %d", o.query, len(r.Docs), len(lg.c.ids))
		}
		for i, d := range r.Docs {
			want := lg.c.want[i][o.q]
			if d.ID != lg.c.ids[i] || d.Error != "" || (answer{kind: d.Kind, count: d.Count, value: d.Value}) != want {
				return r, end, fmt.Errorf("batch %q: document %d is %+v, want %s %+v", o.query, i, d, lg.c.ids[i], want)
			}
		}
		return r, end, nil
	case opPut:
		if err = lg.send("PUT", "/doc/"+lg.c.ids[o.doc], lg.c.poolXML[o.pool], nil); err != nil {
			return r, time.Now(), err
		}
		end = time.Now()
		// The PUT counts only once a read returns the new document.
		_, err = lg.query(o.doc, o.query, o.want)
		return reply{}, end, err
	}
	panic("unknown op kind")
}

func (lg *loadgen) run(o op, due time.Time) sample {
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	r, end, err := lg.do(o)
	s := sample{kind: o.kind, lat: end.Sub(due), late: sent.Sub(due), ok: err == nil, sent: sent,
		total: r.Timings.TotalNs, compile: r.Timings.CompileNs, eval: r.Timings.EvalNs}
	if err != nil {
		lg.fail("%s: %v", o.kind, err)
	}
	return s
}

// dispatcher hands the stream's operations out in order to the
// connections. When the workload writes, it also holds each operation's
// document until the operation completes, so a later operation on that
// document waits for it and sees exactly the content the stream expects.
type dispatcher struct {
	mu    sync.Mutex
	gen   *opGen
	locks []sync.Mutex // per document; nil when nothing writes
}

func newDispatcher(gen *opGen, writes bool) *dispatcher {
	d := &dispatcher{gen: gen}
	if writes {
		d.locks = make([]sync.Mutex, len(gen.c.ids))
	}
	return d
}

func (d *dispatcher) next() op {
	d.mu.Lock()
	defer d.mu.Unlock()
	o := d.gen.next()
	if d.locks != nil {
		d.locks[o.doc].Lock()
	}
	return o
}

func (d *dispatcher) done(o op) {
	if d.locks != nil {
		d.locks[o.doc].Unlock()
	}
}

// closedLoop keeps every connection busy, each sending its next operation
// as soon as its previous answer arrives, until dur has passed or the
// server has exited. It returns the samples and the phase's duration.
func (lg *loadgen) closedLoop(d *dispatcher, dur time.Duration, alive func() bool) ([]sample, time.Duration) {
	start := time.Now()
	stop := start.Add(dur)
	out := make([][]sample, connections)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(stop) && alive() {
				o := d.next()
				out[i] = append(out[i], lg.run(o, time.Time{}))
				d.done(o)
			}
		}(i)
	}
	wg.Wait()
	return flatten(out), time.Since(start)
}

// openLoop schedules operations at a fixed rate for dur, whatever the
// server's response times, and sends each on the first connection that
// is free. Latency counts from each operation's due time,
// so a stall also delays every operation scheduled behind it.
func (lg *loadgen) openLoop(d *dispatcher, rate float64, dur time.Duration, alive func() bool) []sample {
	type due struct {
		o  op
		at time.Time
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	ch := make(chan due)
	out := make([][]sample, connections)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for x := range ch {
				time.Sleep(time.Until(x.at))
				out[i] = append(out[i], lg.run(x.o, x.at))
				d.done(x.o)
			}
		}(i)
	}
	for at := start; at.Before(start.Add(dur)) && alive(); at = at.Add(interval) {
		ch <- due{d.next(), at}
	}
	close(ch)
	wg.Wait()
	return flatten(out)
}

func flatten(ss [][]sample) []sample {
	var out []sample
	for _, s := range ss {
		out = append(out, s...)
	}
	return out
}

// snapshot times POST /snapshot.
func (lg *loadgen) snapshot() (time.Duration, error) {
	t0 := time.Now()
	err := lg.send("POST", "/snapshot", nil, nil)
	return time.Since(t0), err
}

// quantile returns the q-quantile of xs, interpolating between order
// statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies returns the latencies in ms of the samples of the given kinds;
// a failed operation counts as infinitely slow.
func latencies(ss []sample, kinds ...opKind) []float64 {
	var out []float64
	for _, s := range ss {
		for _, k := range kinds {
			if s.kind == k {
				if s.ok {
					out = append(out, float64(s.lat)/1e6)
				} else {
					out = append(out, math.Inf(1))
				}
			}
		}
	}
	return out
}

func countOK(ss []sample) (ok int) {
	for _, s := range ss {
		if s.ok {
			ok++
		}
	}
	return ok
}
