package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	xpath "repro"
)

// hostileStrings are the strings the append encoder must escape exactly as
// encoding/json does: HTML-sensitive bytes, JSON metacharacters, every
// control-byte class, invalid UTF-8, the JavaScript line separators, and
// the empty string (which omitempty drops).
var hostileStrings = []string{
	"",
	"plain",
	"<script>&amp;</script>",
	`quote " and backslash \`,
	"\b\f\n\r\t",
	"\x00\x01\x1f\x7f",
	"\u2028 and \u2029",
	"\xff\xfe invalid",
	"truncated rune \xe2\x82",
	"\xc0\x80 overlong",
	"ünïcödé 日本語 🎉",
	"\ufffd already replacement",
	strings.Repeat("x", 200),
}

// encodingJSON is the reference: what json.NewEncoder(w).Encode writes.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkQueryEncoding(t *testing.T, r QueryResponse) {
	t.Helper()
	want := encodingJSON(t, r)
	if got := r.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("QueryResponse %+v:\n got  %q\n want %q", r, got, want)
	}
}

func checkBatchEncoding(t *testing.T, r BatchResponse) {
	t.Helper()
	want := encodingJSON(t, r)
	if got := r.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("BatchResponse %+v:\n got  %q\n want %q", r, got, want)
	}
}

// TestAppendEncoderMatchesEncodingJSON holds the /query and /batch append
// encoders byte-equal to encoding/json: a table of hostile strings in every
// string field, empty versus omitted fields, then seeded random responses.
func TestAppendEncoderMatchesEncodingJSON(t *testing.T) {
	for _, s := range hostileStrings {
		checkQueryEncoding(t, QueryResponse{
			ID: s, Engine: s, Kind: s, Value: s, Trace: s,
			Nodes: []NodeJSON{{Pre: 1, Label: s, Value: s}, {Label: s}},
		})
		checkBatchEncoding(t, BatchResponse{
			Engine: s, Trace: s,
			Docs: []BatchDocJSON{{ID: s, Kind: s, Value: s, Error: s}, {ID: s}},
		})
	}

	// Zero values, nil versus empty slices, negative and extreme numbers.
	checkQueryEncoding(t, QueryResponse{})
	checkQueryEncoding(t, QueryResponse{Nodes: []NodeJSON{}})
	checkQueryEncoding(t, QueryResponse{Count: -3, CacheHit: true,
		Stats:   StatsJSON{TableCells: -1, ContextsEvaluated: 1 << 62, AxisCalls: -1 << 63},
		Timings: TimingsJSON{CompileNs: 1, EvalNs: -1, TotalNs: 1<<63 - 1}})
	checkBatchEncoding(t, BatchResponse{})
	checkBatchEncoding(t, BatchResponse{Docs: []BatchDocJSON{}})
	checkBatchEncoding(t, BatchResponse{Docs: []BatchDocJSON{{}}, Errors: 7})

	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 500; i++ {
		checkQueryEncoding(t, randomQueryResponse(rng))
		checkBatchEncoding(t, randomBatchResponse(rng))
	}
}

// randomString draws from hostile strings, random bytes (often invalid
// UTF-8) and random runes across the planes.
func randomString(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return hostileStrings[rng.Intn(len(hostileStrings))]
	case 1:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return string(b)
	case 2:
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteRune(rune(rng.Intn(0x11000)))
		}
		return sb.String()
	}
	return ""
}

func randomInt(rng *rand.Rand) int64 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return rng.Int63n(1000) - 500
	}
	return rng.Int63() - rng.Int63()
}

func randomStats(rng *rand.Rand) StatsJSON {
	return StatsJSON{TableCells: randomInt(rng), ContextsEvaluated: randomInt(rng), AxisCalls: randomInt(rng)}
}

func randomTimings(rng *rand.Rand) TimingsJSON {
	return TimingsJSON{CompileNs: randomInt(rng), EvalNs: randomInt(rng), TotalNs: randomInt(rng)}
}

func randomQueryResponse(rng *rand.Rand) QueryResponse {
	r := QueryResponse{
		ID: randomString(rng), Engine: randomString(rng), Kind: randomString(rng),
		Count: int(randomInt(rng)), Value: randomString(rng), CacheHit: rng.Intn(2) == 0,
		Stats: randomStats(rng), Timings: randomTimings(rng), Trace: randomString(rng),
	}
	if n := rng.Intn(5); n > 0 {
		r.Nodes = make([]NodeJSON, n-1)
		for i := range r.Nodes {
			r.Nodes[i] = NodeJSON{Pre: int(randomInt(rng)), Label: randomString(rng), Value: randomString(rng)}
		}
	}
	return r
}

func randomBatchResponse(rng *rand.Rand) BatchResponse {
	r := BatchResponse{
		Engine: randomString(rng), Errors: int(randomInt(rng)),
		Stats: randomStats(rng), Timings: randomTimings(rng), Trace: randomString(rng),
	}
	if n := rng.Intn(5); n > 0 {
		r.Docs = make([]BatchDocJSON, n-1)
		for i := range r.Docs {
			r.Docs[i] = BatchDocJSON{ID: randomString(rng), Kind: randomString(rng),
				Count: int(randomInt(rng)), Value: randomString(rng), Error: randomString(rng)}
		}
	}
	return r
}

// TestLongMultiByteValueTruncatesOnRuneBoundary: a string-value longer
// than the response cap whose cut point falls inside a multi-byte rune
// must come back as valid UTF-8 (encoding/json would otherwise turn the
// split rune into U+FFFD), still within the cap and ending in "...".
func TestLongMultiByteValueTruncatesOnRuneBoundary(t *testing.T) {
	long := "a" + strings.Repeat("€", 100) // '€' is 3 bytes; byte 117 is mid-rune
	doc, err := xpath.ParseDocumentString("<r><v>" + long + "</v></r>")
	if err != nil {
		t.Fatal(err)
	}
	st := xpath.NewStore()
	if err := st.Add("long", doc); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Store: st})
	var resp QueryResponse
	w := do(t, s, http.MethodPost, "/query", QueryRequest{ID: "long", Query: "/child::r/child::v"}, &resp)
	if w.Code != http.StatusOK || len(resp.Nodes) != 1 {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	v := resp.Nodes[0].Value
	if strings.ContainsRune(v, utf8.RuneError) || !utf8.ValidString(v) {
		t.Fatalf("truncated value split a rune: %q", v)
	}
	if len(v) > maxNodeValueLen || !strings.HasSuffix(v, "...") || !strings.HasPrefix(long, strings.TrimSuffix(v, "...")) {
		t.Fatalf("truncated value %q (%d bytes) is not a prefix of the original plus \"...\" within %d bytes",
			v, len(v), maxNodeValueLen)
	}
	if want := maxNodeValueLen - 3 - 2; len(v)-3 != want {
		t.Fatalf("kept %d bytes before \"...\", want %d (the last whole rune before the cap)", len(v)-3, want)
	}
}

// Warm-request allocation ceilings, measured through httptest including
// the request and recorder construction. A rise means the response path
// started materializing or reflecting again.
const (
	maxQueryAllocs = 50
	maxBatchAllocs = 114
)

// TestWarmRequestAllocs pins the allocations of a warm /query and a warm
// /batch on the default engine.
func TestWarmRequestAllocs(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation allocate; the pins run in the plain test job")
	}
	s := newTestServer(t, Config{})
	serve := func(target string, body []byte) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", target, w.Code, w.Body.String())
		}
	}
	query, _ := json.Marshal(QueryRequest{ID: "s20", Query: "/descendant::b[child::d]/child::c"})
	batch, _ := json.Marshal(BatchRequest{Query: "/descendant::b[child::d]/child::c", Workers: 1})
	serve("/query", query)
	serve("/batch", batch)
	if got := testing.AllocsPerRun(200, func() { serve("/query", query) }); got > maxQueryAllocs {
		t.Errorf("warm /query: %.0f allocs per request, ceiling %d", got, maxQueryAllocs)
	}
	if got := testing.AllocsPerRun(200, func() { serve("/batch", batch) }); got > maxBatchAllocs {
		t.Errorf("warm /batch: %.0f allocs per request, ceiling %d", got, maxBatchAllocs)
	}
}

// BenchmarkEncodeQueryResponse compares the append encoder with
// encoding/json on a 50-node /query response.
func BenchmarkEncodeQueryResponse(b *testing.B) {
	resp := QueryResponse{ID: "doc-0042.xml", Engine: "auto", Kind: "node-set", Count: 50,
		Stats:   StatsJSON{ContextsEvaluated: 51, AxisCalls: 3},
		Timings: TimingsJSON{CompileNs: 812, EvalNs: 41250, TotalNs: 44003}}
	for i := 0; i < 50; i++ {
		resp.Nodes = append(resp.Nodes, NodeJSON{Pre: 3 * i, Label: "c", Value: "21 22"})
	}
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			json.NewEncoder(&buf).Encode(resp)
		}
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = resp.appendJSON(buf[:0])
		}
	})
}
