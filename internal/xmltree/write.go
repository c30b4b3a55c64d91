package xmltree

import (
	"bufio"
	"io"
	"strings"
)

// walk replays the document as the event sequence a parser saw: open and
// close for every element and text for every maximal run of character data
// between tags, in document order. A node's direct text is the part of its
// text range not covered by its children's ranges, so the runs are the gaps
// between consecutive children. It is a flat pass over pre indexes (no
// recursion, whatever the depth); the document root has no events.
func (d *Document) walk(start func(p int32), text func(s string), end func(p int32)) {
	t := &d.topo
	pos := int32(0) // text emitted so far
	cur := int32(0) // innermost open node
	gap := func(to int32) {
		if pos < to {
			text(d.text[pos:to])
		}
		pos = to
	}
	for p := int32(1); p < int32(len(d.nodes)); p++ {
		for cur != t.Parent[p] {
			gap(t.TextEnd[cur])
			end(cur)
			cur = t.Parent[cur]
		}
		gap(t.TextStart[p])
		start(p)
		cur = p
	}
	for cur != 0 {
		gap(t.TextEnd[cur])
		end(cur)
		cur = t.Parent[cur]
	}
}

// Escapers for WriteXML. Carriage returns are written as character
// references because a parser normalizes a raw "\r" to "\n"; attribute
// values also protect tabs and newlines from attribute-value normalization.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\r", "&#13;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;",
		"\r", "&#13;", "\n", "&#10;", "\t", "&#9;")
)

// xmlWriter is what writeXML needs of its sink; bufio.Writer and
// strings.Builder both provide it, and neither reports errors per call
// (bufio's is sticky and surfaces at Flush, strings.Builder has none).
type xmlWriter interface {
	io.Writer
	io.StringWriter
	io.ByteWriter
}

// WriteXML serializes the document back to XML. It is used by examples and
// by round-trip tests; the output has no declaration and no indentation so
// that string values survive the round trip exactly.
func (d *Document) WriteXML(w io.Writer) error {
	bw := bufio.NewWriter(w)
	d.writeXML(bw)
	return bw.Flush()
}

// XMLString returns the document serialized as XML.
func (d *Document) XMLString() string {
	var b strings.Builder
	b.Grow(len(d.text) + len(d.attrText) + 8*len(d.nodes))
	d.writeXML(&b)
	return b.String()
}

func (d *Document) writeXML(w xmlWriter) {
	d.walk(func(p int32) {
		n := &d.nodes[p]
		_ = w.WriteByte('<')
		_, _ = w.WriteString(n.Label())
		for i := d.attrOff[p]; i < d.attrOff[p+1]; i++ {
			_ = w.WriteByte(' ')
			_, _ = w.WriteString(d.attrNames[d.attrName[i]])
			_, _ = w.WriteString(`="`)
			_, _ = attrEscaper.WriteString(w, d.attrValue(i))
			_ = w.WriteByte('"')
		}
		_ = w.WriteByte('>')
	}, func(s string) {
		_, _ = textEscaper.WriteString(w, s)
	}, func(p int32) {
		_, _ = w.WriteString("</")
		_, _ = w.WriteString(d.nodes[p].Label())
		_ = w.WriteByte('>')
	})
}
