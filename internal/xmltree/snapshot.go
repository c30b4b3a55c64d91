package xmltree

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Snapshot is a compact binary serialization of a Document: labels are
// interned into a string table and the tree is emitted as a preorder event
// stream. Loading a snapshot rebuilds the document — its columns and all
// derived indexes (event numbers, text offsets, label sets, ids) — without
// re-parsing XML. It is the persistence substrate the paper's
// conclusion points at ("using our techniques for XPath processors that
// query XML documents stored in a database"): documents can be prepared
// once and memory-mapped into evaluation processes cheaply.
//
// Format (all integers unsigned varints, strings length-prefixed):
//
//	magic "XPT1"
//	labelCount, labels…
//	events…  where each event is one of
//	    0 end-of-element
//	    1 start-of-element: labelIdx, attrCount, (name, value)…
//	    2 text: content
//	    3 end-of-document
const snapshotMagic = "XPT1"

const (
	evEnd byte = iota
	evStart
	evText
	evEOF
)

// WriteSnapshot serializes the document. The events are the document's
// parse events (see walk), so a document whose text runs were each one
// parser text event writes the same bytes it was loaded from.
func (d *Document) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString(snapshotMagic)

	// Label table, in order of first appearance among the elements;
	// snapIdx[id] is the table index of label id plus one (0: unused).
	t := &d.topo
	snapIdx := make([]uint64, len(d.labels))
	var order []int32
	for _, id := range t.LabelID[1:] {
		if snapIdx[id] == 0 {
			order = append(order, id)
			snapIdx[id] = uint64(len(order))
		}
	}
	WriteUvarint(bw, uint64(len(order)))
	for _, id := range order {
		WriteSnapString(bw, d.labels[id])
	}

	// bufio.Writer errors are sticky: Flush reports the first one.
	d.walk(func(p int32) {
		_ = bw.WriteByte(evStart)
		WriteUvarint(bw, snapIdx[t.LabelID[p]]-1)
		WriteUvarint(bw, uint64(d.attrOff[p+1]-d.attrOff[p]))
		for i := d.attrOff[p]; i < d.attrOff[p+1]; i++ {
			WriteSnapString(bw, d.attrNames[d.attrName[i]])
			WriteSnapString(bw, d.attrValue(i))
		}
	}, func(s string) {
		_ = bw.WriteByte(evText)
		WriteSnapString(bw, s)
	}, func(int32) {
		_ = bw.WriteByte(evEnd)
	})
	_ = bw.WriteByte(evEOF)
	return bw.Flush()
}

// LoadSnapshot reads a snapshot written by WriteSnapshot and rebuilds the
// document with all evaluation indexes. DefaultLimits applies:
// snapshot bytes come from disk or the network, so they get the same
// adversarial-input treatment as raw XML.
func LoadSnapshot(r io.Reader) (*Document, error) {
	return LoadSnapshotWithLimits(r, DefaultLimits())
}

// LoadSnapshotWithLimits is LoadSnapshot under caller-chosen ingest bounds.
func LoadSnapshotWithLimits(r io.Reader, l Limits) (*Document, error) {
	d, _, err := LoadSnapshotCounted(r, l)
	return d, err
}

// LoadSnapshotCounted is LoadSnapshotWithLimits reporting additionally how
// many bytes of r the snapshot occupied — the exact count the decoder
// consumed, up to and including the end-of-document event. Framed
// embeddings (the corpus formats of internal/store) use it to detect
// slack: declared frame bytes the document stream never accounted for.
// The decoder reads r to its end; bytes after the snapshot are discarded.
func LoadSnapshotCounted(r io.Reader, l Limits) (*Document, int64, error) {
	var buf []byte
	var err error
	if lr, ok := r.(interface{ Len() int }); ok {
		// bytes.Reader, bytes.Buffer, strings.Reader: one exact buffer.
		buf = make([]byte, lr.Len())
		_, err = io.ReadFull(r, buf)
	} else {
		buf, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("xmltree: snapshot: %w", err)
	}
	d, n, err := LoadSnapshotBytes(buf, l)
	return d, int64(n), err
}

// LoadSnapshotBytes decodes the snapshot at the start of buf and reports
// how many bytes it occupied. The document does not retain buf.
//
// Decoding takes two passes over buf. The first validates the stream,
// enforces l and counts nodes, attributes and text bytes; the second
// builds the document into columns allocated once at their exact size, so
// a load makes the same number of allocations whatever the document's
// size. Every count read from the stream is treated as a claim, not a
// fact: it is checked against the bytes actually present before anything
// is allocated for it.
func LoadSnapshotBytes(buf []byte, l Limits) (*Document, int, error) {
	r := &snapReader{buf: buf}
	magic, err := r.next(len(snapshotMagic))
	if err != nil {
		return nil, 0, fmt.Errorf("xmltree: snapshot: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, 0, fmt.Errorf("xmltree: snapshot: bad magic %q", magic)
	}
	nLabels, err := r.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("xmltree: snapshot: label count: %w", err)
	}
	// Every label takes at least its one-byte length prefix.
	if nLabels > 1<<24 || nLabels > uint64(r.remaining()) {
		return nil, 0, fmt.Errorf("xmltree: snapshot: implausible label count %d", nLabels)
	}
	labels := make([][]byte, nLabels)
	for i := range labels {
		if labels[i], err = r.str(); err != nil {
			return nil, 0, fmt.Errorf("xmltree: snapshot: label %d: %w", i, err)
		}
	}
	events := r.off
	n, err := decodeEvents(r, labels, l, nil)
	if err != nil {
		return nil, 0, err
	}
	end := r.off
	b := NewBuilder()
	b.reserve(n.nodes, n.attrs, n.text, n.attrText)
	r.off = events
	if _, err := decodeEvents(r, labels, l, b); err != nil {
		return nil, 0, err
	}
	d, err := b.Done()
	if err != nil {
		return nil, 0, fmt.Errorf("xmltree: snapshot: %w", err)
	}
	return d, end, nil
}

// snapCounts are the column sizes the first decoding pass measures.
type snapCounts struct{ nodes, attrs, text, attrText int }

// decodeEvents walks the event stream from r's position to the
// end-of-document event. Without a builder it validates and counts; with
// one it feeds the builder, which has been reserved with the counts.
func decodeEvents(r *snapReader, labels [][]byte, l Limits, b *Builder) (snapCounts, error) {
	c := snapCounts{nodes: 1}
	var labelIDs []int32 // snapshot label index -> document label ID + 1
	if b != nil {
		labelIDs = make([]int32, len(labels))
	}
	depth := 0
	for {
		ev, err := r.byte()
		if err != nil {
			return c, fmt.Errorf("xmltree: snapshot: event: %w", err)
		}
		switch ev {
		case evStart:
			li, err := r.uvarint()
			if err != nil {
				return c, fmt.Errorf("xmltree: snapshot: %w", err)
			}
			if li >= uint64(len(labels)) {
				return c, fmt.Errorf("xmltree: snapshot: label index %d out of range", li)
			}
			nAttrs, err := r.uvarint()
			if err != nil {
				return c, fmt.Errorf("xmltree: snapshot: %w", err)
			}
			// An attribute takes at least its two length prefixes.
			if nAttrs > 1<<20 || nAttrs > uint64(r.remaining()/2) {
				return c, fmt.Errorf("xmltree: snapshot: implausible attribute count %d", nAttrs)
			}
			depth++
			if err := l.checkDepth(depth); err != nil {
				return c, err
			}
			c.nodes++
			if err := l.checkNodes(c.nodes); err != nil {
				return c, err
			}
			if b != nil {
				if labelIDs[li] == 0 {
					labelIDs[li] = b.intern(string(labels[li])) + 1
				}
				b.open(labelIDs[li] - 1)
			}
			for i := uint64(0); i < nAttrs; i++ {
				name, err := r.str()
				if err != nil {
					return c, fmt.Errorf("xmltree: snapshot: %w", err)
				}
				value, err := r.str()
				if err != nil {
					return c, fmt.Errorf("xmltree: snapshot: %w", err)
				}
				c.attrs++
				c.attrText += len(value)
				if b != nil {
					b.attr(b.attrNameID(name), value, "")
				}
			}
			if c.attrText > math.MaxInt32 {
				return c, fmt.Errorf("xmltree: snapshot: attribute text exceeds %d bytes", math.MaxInt32)
			}
		case evText:
			s, err := r.str()
			if err != nil {
				return c, fmt.Errorf("xmltree: snapshot: %w", err)
			}
			if depth == 0 && len(s) > 0 {
				return c, fmt.Errorf("xmltree: snapshot: character data outside the document element")
			}
			c.text += len(s)
			if c.text > math.MaxInt32 {
				return c, fmt.Errorf("xmltree: snapshot: document text exceeds %d bytes", math.MaxInt32)
			}
			if b != nil {
				b.appendText(s, "")
			}
		case evEnd:
			if depth == 0 {
				return c, fmt.Errorf("xmltree: snapshot: End without matching Start")
			}
			depth--
			if b != nil {
				_ = b.End()
			}
		case evEOF:
			return c, nil
		default:
			return c, fmt.Errorf("xmltree: snapshot: unknown event %d", ev)
		}
	}
}

// snapReader decodes the snapshot framing from a byte slice.
type snapReader struct {
	buf []byte
	off int
}

func (r *snapReader) remaining() int { return len(r.buf) - r.off }

func (r *snapReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	r.off++
	return r.buf[r.off-1], nil
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		return 0, io.ErrUnexpectedEOF
	case n < 0:
		return 0, errors.New("varint overflows 64 bits")
	}
	r.off += n
	return v, nil
}

// next returns the next n bytes of the buffer (aliased, not copied).
func (r *snapReader) next(n int) ([]byte, error) {
	if n > r.remaining() {
		return nil, io.ErrUnexpectedEOF
	}
	r.off += n
	return r.buf[r.off-n : r.off], nil
}

// str reads a length-prefixed string as an alias into the buffer.
func (r *snapReader) str() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, io.ErrUnexpectedEOF
	}
	return r.next(int(n))
}

// WriteUvarint, WriteSnapString and ReadSnapString are the shared framing
// primitives of the snapshot formats — the per-document "XPT1" stream here
// and the corpus "XPC1" stream of internal/store both use them, so the two
// formats cannot drift apart on varint encoding or sanity limits.

// WriteUvarint appends an unsigned varint.
func WriteUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	// bufio.Writer.Write never returns an error until Flush.
	_, _ = w.Write(buf[:n])
}

// WriteSnapString appends a length-prefixed string.
func WriteSnapString(w *bufio.Writer, s string) {
	WriteUvarint(w, uint64(len(s)))
	_, _ = w.WriteString(s)
}

// ReadSnapString reads a length-prefixed string, rejecting implausible
// lengths (the cap admits large text segments; callers with tighter
// domains — e.g. document IDs — validate at write time).
//
// The length prefix is a claim, not a fact: beyond one chunk the buffer
// grows with the bytes actually read, so a truncated stream declaring a
// gigabyte string fails with an io error after at most one chunk's
// allocation instead of committing the claimed size up front.
func ReadSnapString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	const chunk = 1 << 20
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var sb strings.Builder
	buf := make([]byte, chunk)
	for remaining := n; remaining > 0; {
		m := uint64(chunk)
		if remaining < m {
			m = remaining
		}
		if _, err := io.ReadFull(r, buf[:m]); err != nil {
			return "", err
		}
		sb.Write(buf[:m])
		remaining -= m
	}
	return sb.String(), nil
}
