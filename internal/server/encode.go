package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The /query and /batch responses have a fixed shape, so they are encoded
// by hand-written append functions instead of encoding/json's reflection.
// The output is byte-equal to json.NewEncoder(w).Encode of the same value:
// HTML-safe escaping of <, > and &, invalid UTF-8 as \ufffd, U+2028 and
// U+2029 escaped, omitempty honored field by field, and the trailing
// newline. TestAppendEncoderMatchesEncodingJSON holds it there.

// bufPool recycles response buffers. Buffers that grew past maxPooledBuf
// are dropped instead of pinned in the pool.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledBuf = 64 << 10

// writeAppended encodes a response through enc into a pooled buffer and
// writes it with one Write call.
func writeAppended(w http.ResponseWriter, enc func([]byte) []byte) {
	bp := bufPool.Get().(*[]byte)
	b := enc((*bp)[:0])
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
		// Headers are gone; all we can do is note it in the metrics.
		mStatus[5].Add(1)
	}
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// appendJSON appends the encoding/json form of r plus a newline.
func (r *QueryResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, r.ID)
	b = append(b, `,"engine":`...)
	b = appendString(b, r.Engine)
	b = append(b, `,"kind":`...)
	b = appendString(b, r.Kind)
	if r.Count != 0 {
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(r.Count), 10)
	}
	if len(r.Nodes) != 0 {
		b = append(b, `,"nodes":[`...)
		for i := range r.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = r.Nodes[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	if r.Value != "" {
		b = append(b, `,"value":`...)
		b = appendString(b, r.Value)
	}
	b = append(b, `,"cache_hit":`...)
	b = strconv.AppendBool(b, r.CacheHit)
	b = append(b, `,"stats":`...)
	b = r.Stats.appendJSON(b)
	b = append(b, `,"timings":`...)
	b = r.Timings.appendJSON(b)
	if r.Trace != "" {
		b = append(b, `,"trace":`...)
		b = appendString(b, r.Trace)
	}
	return append(b, "}\n"...)
}

// appendJSON appends the encoding/json form of r plus a newline.
func (r *BatchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"engine":`...)
	b = appendString(b, r.Engine)
	b = append(b, `,"docs":`...)
	if r.Docs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Docs {
			if i > 0 {
				b = append(b, ',')
			}
			b = r.Docs[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"errors":`...)
	b = strconv.AppendInt(b, int64(r.Errors), 10)
	b = append(b, `,"stats":`...)
	b = r.Stats.appendJSON(b)
	b = append(b, `,"timings":`...)
	b = r.Timings.appendJSON(b)
	if r.Trace != "" {
		b = append(b, `,"trace":`...)
		b = appendString(b, r.Trace)
	}
	return append(b, "}\n"...)
}

func (n *NodeJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"pre":`...)
	b = strconv.AppendInt(b, int64(n.Pre), 10)
	b = append(b, `,"label":`...)
	b = appendString(b, n.Label)
	if n.Value != "" {
		b = append(b, `,"value":`...)
		b = appendString(b, n.Value)
	}
	return append(b, '}')
}

func (d *BatchDocJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, d.ID)
	if d.Kind != "" {
		b = append(b, `,"kind":`...)
		b = appendString(b, d.Kind)
	}
	if d.Count != 0 {
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(d.Count), 10)
	}
	if d.Value != "" {
		b = append(b, `,"value":`...)
		b = appendString(b, d.Value)
	}
	if d.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, d.Error)
	}
	return append(b, '}')
}

func (s *StatsJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"table_cells":`...)
	b = strconv.AppendInt(b, s.TableCells, 10)
	b = append(b, `,"contexts_evaluated":`...)
	b = strconv.AppendInt(b, s.ContextsEvaluated, 10)
	b = append(b, `,"axis_calls":`...)
	b = strconv.AppendInt(b, s.AxisCalls, 10)
	return append(b, '}')
}

func (t *TimingsJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"compile_ns":`...)
	b = strconv.AppendInt(b, t.CompileNs, 10)
	b = append(b, `,"eval_ns":`...)
	b = strconv.AppendInt(b, t.EvalNs, 10)
	b = append(b, `,"total_ns":`...)
	b = strconv.AppendInt(b, t.TotalNs, 10)
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json does
// with HTML escaping on (the json.Encoder default).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
