package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Ingest instruments. Parse times include the column build (Done);
// programmatic Builder use reports only the build histogram and the
// topology and whole-document footprints.
var (
	mParseDocs  = metrics.Default().Counter("xmltree.parse.docs")
	mParseNodes = metrics.Default().Counter("xmltree.parse.nodes")
	mParseBytes = metrics.Default().Counter("xmltree.parse.bytes")
	mParseNs    = metrics.Default().Histogram("xmltree.parse_ns")
	mBuildNs    = metrics.Default().Histogram("xmltree.build_ns")
	mTopoBytes  = metrics.Default().Counter("xmltree.topology_bytes")
	mDocBytes   = metrics.Default().Counter("xmltree.document_bytes")
)

// Ingest bounds. Building, writing and serializing a document are flat
// passes over pre indexes, so depth costs no stack; the depth cap remains
// an input bound on untrusted XML and snapshots, and the node cap bounds
// ingest memory. Both defaults are far above anything a real document does
// (XML in the wild nests tens of levels, not thousands).
const (
	// DefaultMaxDepth is the element-nesting bound Parse and LoadSnapshot
	// apply when the caller does not choose its own Limits.
	DefaultMaxDepth = 4096
	// DefaultMaxNodes is the matching node-count bound (elements plus the
	// document root).
	DefaultMaxNodes = 1 << 26
)

// ErrDepthLimit and ErrNodeLimit classify ingest-limit failures; both are
// wrapped with the offending limit, comparable with errors.Is.
var (
	ErrDepthLimit = errors.New("xmltree: document exceeds the nesting depth limit")
	ErrNodeLimit  = errors.New("xmltree: document exceeds the node count limit")
)

// ErrMalformed classifies input that is not a well-formed XML document with
// exactly one document element. Every Parse error other than the limit
// errors wraps it (comparable with errors.Is) and keeps its own message.
var ErrMalformed = errors.New("xmltree: malformed document")

// malformedError marks err as an ErrMalformed failure.
type malformedError struct{ err error }

func (e malformedError) Error() string        { return e.err.Error() }
func (e malformedError) Unwrap() error        { return e.err }
func (e malformedError) Is(target error) bool { return target == ErrMalformed }

// Limits bounds one document ingest against adversarial input. A zero or
// negative field imposes no corresponding limit; DefaultLimits returns the
// bounds Parse and LoadSnapshot use on their own.
type Limits struct {
	// MaxDepth caps element nesting depth.
	MaxDepth int
	// MaxNodes caps the total node count, document root included.
	MaxNodes int
}

// DefaultLimits returns the ingest bounds applied by Parse and LoadSnapshot.
func DefaultLimits() Limits {
	return Limits{MaxDepth: DefaultMaxDepth, MaxNodes: DefaultMaxNodes}
}

// checkDepth enforces MaxDepth against the current nesting depth.
func (l Limits) checkDepth(depth int) error {
	if l.MaxDepth > 0 && depth > l.MaxDepth {
		return fmt.Errorf("%w (%d)", ErrDepthLimit, l.MaxDepth)
	}
	return nil
}

// checkNodes enforces MaxNodes against the current node count.
func (l Limits) checkNodes(count int) error {
	if l.MaxNodes > 0 && count > l.MaxNodes {
		return fmt.Errorf("%w (%d)", ErrNodeLimit, l.MaxNodes)
	}
	return nil
}

// countingReader counts the raw bytes the decoder consumes.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Parse reads an XML document from r and returns its tree representation.
// Comments and processing instructions are skipped (the paper's data model
// has a single node kind); attributes are kept as data on their element.
// Labels and attribute names are local names (see localName) — the paper
// excludes namespace processing. DefaultLimits applies; ParseWithLimits chooses
// other bounds (the programmatic Builder is never limited — generators
// synthesize arbitrarily large documents through it).
func Parse(r io.Reader) (*Document, error) {
	return ParseWithLimits(r, DefaultLimits())
}

// ParseWithLimits is Parse under caller-chosen ingest bounds; exceeding one
// returns an error wrapping ErrDepthLimit or ErrNodeLimit. Any other error
// wraps ErrMalformed.
func ParseWithLimits(r io.Reader, l Limits) (*Document, error) {
	t0 := trace.Now()
	cr := &countingReader{r: r}
	dec := xml.NewDecoder(cr)
	// The evaluation algorithms never dereference external entities; the
	// default strict decoder settings are what we want, but we accept
	// repeated attributes etc. as encoding/xml does.
	b := NewBuilder()
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, malformedError{fmt.Errorf("xmltree: parse: %w", err)}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if err := l.checkDepth(depth); err != nil {
				return nil, err
			}
			label, err := localName(t.Name)
			if err != nil {
				return nil, err
			}
			b.open(b.intern(label))
			for _, a := range t.Attr {
				name, err := localName(a.Name)
				if err != nil {
					return nil, err
				}
				b.attr(b.attrNameIDString(name), nil, a.Value)
			}
			if err := l.checkNodes(b.Count()); err != nil {
				return nil, err
			}
		case xml.EndElement:
			if err := b.End(); err != nil {
				return nil, malformedError{err}
			}
			depth--
		case xml.CharData:
			if depth > 0 {
				b.appendText(t, "")
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Not part of the data model (§2.1).
		}
	}
	d, err := b.Done()
	if err != nil {
		return nil, malformedError{err}
	}
	mParseDocs.Add(1)
	mParseNodes.Add(int64(d.NumNodes()))
	mParseBytes.Add(cr.n)
	mParseNs.Observe(trace.Now() - t0)
	return d, nil
}

// localName returns the name the data model keeps for an element or
// attribute name. encoding/xml resolves prefixes to URIs; for the paper's
// namespace-free model we keep the local name, except that xml:...
// attributes keep their conventional prefix form (the decoder reports them
// under the XML namespace URI). A dropped prefix must leave a name that is
// an XML name by itself, as Namespaces in XML requires: otherwise the
// document could not be serialized again.
func localName(n xml.Name) (string, error) {
	if n.Space == "" {
		return n.Local, nil
	}
	if n.Space == "xml" || n.Space == "http://www.w3.org/XML/1998/namespace" {
		return "xml:" + n.Local, nil
	}
	if !isName(n.Local) {
		return "", malformedError{fmt.Errorf("xmltree: parse: local name %q of a prefixed name is not an XML name", n.Local)}
	}
	return n.Local, nil
}

// isName reports whether s, the local part of a name the decoder accepted
// (so every byte after the first is a valid name character), is a name by
// itself. Only the first character can be wrong; ASCII is decided here and
// the rare non-ASCII start is handed to the decoder itself.
func isName(s string) bool {
	switch c := s[0]; {
	case c == '_' || c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		return true
	case c < utf8.RuneSelf:
		return false
	}
	_, err := xml.NewDecoder(strings.NewReader("<" + s + "/>")).Token()
	return err == nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// MustParseString is ParseString for known-good documents (tests, examples);
// it panics on error.
func MustParseString(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}
