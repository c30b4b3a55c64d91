// Package xmltree implements the XML data model of Gottlob/Koch/Pichler
// (ICDE 2003, Section 2.1): an unranked, ordered, labeled tree over a node
// domain dom, together with the auxiliary machinery the paper's algorithms
// rely on — document order <doc, node tests T(t), string values strval, and
// the deref_ids function backing the id() core-library function.
//
// Following the paper, all nodes are of one kind; the synthetic document
// root (the node selected by "/") exists as Node 0 of every Document but is
// not part of dom: no node test matches it except node(), so it never
// appears in query results unless explicitly addressed.
//
// A Document is a set of per-node columns indexed by the document-order
// (pre) index: the tree shape in a Topology, the character data in one text
// column, attributes in CSR columns. There is no pointer tree. Because a
// preorder numbering makes every subtree a contiguous pre range, it also
// makes the subtree's character data one contiguous run of the text column,
// so strval(n) is a zero-copy substring. A Node is a two-word handle
// (document, pre) into those columns.
//
// Documents are immutable after construction, which makes every accessor
// safe for concurrent readers.
package xmltree

import (
	"slices"
	"strings"
	"sync"
	"unicode"
	"unsafe"
)

// Node is a handle on one node of a document: the document and the node's
// pre index. All nodes of a document live in one array, so a node has
// exactly one *Node and pointer equality is node identity. The zero value
// is not useful; nodes come from a Document (Root, Node, sets).
type Node struct {
	doc *Document
	pre int32
}

// Attr is a single attribute of an element. The paper's data model does not
// include an attribute axis; attributes are retained purely as data (most
// importantly the "id" attribute feeding deref_ids).
type Attr struct {
	Name  string
	Value string
}

// Document returns the document the node belongs to.
func (n *Node) Document() *Document { return n.doc }

// Parent returns the node's parent, or nil for the document root.
func (n *Node) Parent() *Node {
	if p := n.doc.topo.Parent[n.pre]; p >= 0 {
		return &n.doc.nodes[p]
	}
	return nil
}

// Children returns the node's element children in document order, as a
// fresh slice (the topology's Kids row is the allocation-free form).
func (n *Node) Children() []*Node { return n.doc.handles(n.doc.topo.Kids(n.pre)) }

// Label returns the node's tag name. The document root has the empty label.
func (n *Node) Label() string { return n.doc.labels[n.doc.topo.LabelID[n.pre]] }

// IsRoot reports whether the node is the synthetic document root (the node
// addressed by "/").
func (n *Node) IsRoot() bool { return n.pre == 0 }

// Pre returns the node's document-order (preorder) index; the document root
// has Pre 0, the document element Pre 1.
func (n *Node) Pre() int { return int(n.pre) }

// Level returns the node's depth; the document root is at level 0.
func (n *Node) Level() int { return int(n.doc.topo.Level[n.pre]) }

// SiblingIndex returns the node's position among its parent's children
// (0-based). The document root has index 0.
func (n *Node) SiblingIndex() int { return int(n.doc.topo.SibIdx[n.pre]) }

// StartEvent returns the node's opening-tag event number. Together with
// EndEvent it gives O(1) descendant/following/preceding tests:
// y is a descendant of x iff start(x) < start(y) and end(y) < end(x);
// y follows x iff start(y) > end(x).
func (n *Node) StartEvent() int { return int(n.doc.topo.Start[n.pre]) }

// EndEvent returns the node's closing-tag event number.
func (n *Node) EndEvent() int { return int(n.doc.topo.End[n.pre]) }

// Attrs returns the node's attributes in document order, as a fresh slice
// (Attr looks one up without allocating).
func (n *Node) Attrs() []Attr {
	d := n.doc
	lo, hi := d.attrOff[n.pre], d.attrOff[n.pre+1]
	if lo == hi {
		return nil
	}
	out := make([]Attr, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, Attr{Name: d.attrNames[d.attrName[i]], Value: d.attrValue(i)})
	}
	return out
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	d := n.doc
	for i := d.attrOff[n.pre]; i < d.attrOff[n.pre+1]; i++ {
		if d.attrNames[d.attrName[i]] == name {
			return d.attrValue(i), true
		}
	}
	return "", false
}

// StringValue returns strval(n): the concatenation of all character data
// between the node's start and end tags, in document order (§2.1). The
// subtree's character data is one run of the document's text column, so
// the value is a substring of it: O(1), allocation-free, and safe for
// concurrent readers.
func (n *Node) StringValue() string { return n.doc.StringValueAt(int(n.pre)) }

// Before reports whether n precedes m in document order (n <doc m).
func (n *Node) Before(m *Node) bool { return n.pre < m.pre }

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	t := &n.doc.topo
	return t.Start[n.pre] < t.Start[m.pre] && t.End[m.pre] < t.End[n.pre]
}

// IsDescendantOf reports whether n is a proper descendant of m.
func (n *Node) IsDescendantOf(m *Node) bool { return m.IsAncestorOf(n) }

// FollowingSiblings returns the siblings after n in document order, as a
// fresh slice.
func (n *Node) FollowingSiblings() []*Node {
	t := &n.doc.topo
	if n.pre == 0 {
		return nil
	}
	return n.doc.handles(t.Kids(t.Parent[n.pre])[t.SibIdx[n.pre]+1:])
}

// PrecedingSiblings returns the siblings before n, in document order
// (callers that need reverse document order iterate backwards), as a fresh
// slice.
func (n *Node) PrecedingSiblings() []*Node {
	t := &n.doc.topo
	if n.pre == 0 {
		return nil
	}
	return n.doc.handles(t.Kids(t.Parent[n.pre])[:t.SibIdx[n.pre]])
}

// Document is an immutable parsed XML document: the node domain dom plus the
// synthetic root, in document order, with the auxiliary indexes used by the
// evaluation algorithms. Every per-node column is indexed by pre.
type Document struct {
	nodes []Node // nodes[p] is the handle of the node with pre index p

	// Flat structure-of-arrays tree encoding (see topology.go) and the
	// document's character data in document order: node p's string value
	// is text[topo.TextStart[p]:topo.TextEnd[p]].
	topo Topology
	text string

	// Attributes in CSR form: node p owns attribute indexes
	// [attrOff[p], attrOff[p+1]); attribute i is named attrNames[attrName[i]]
	// and its value is attrText[attrValOff[i]:attrValOff[i+1]].
	attrOff    []int32
	attrName   []int32
	attrValOff []int32
	attrNames  []string
	attrText   string

	// idIndex holds, sorted by id value, the pre index of the first node in
	// document order carrying each distinct "id" attribute value. It is
	// built on the first id lookup (idOnce), so loading a document never
	// pays for it; idCount, the number of nodes with an id attribute, bounds
	// its size. idName is the attrNames index of "id" (-1 when absent).
	idOnce  sync.Once
	idIndex []int32
	idCount int
	idName  int32

	// The always-on per-document label table: labels[id] is the canonical
	// string of dense label ID id, labelSets[id] its T(t) bitset.
	labels    []string
	labelIDs  map[string]int32
	labelSets []*Set
	allElems  *Set // T(*): every node except the document root
	allNodes  *Set // node(): every node including the document root
	emptySet  *Set // shared T(t) for labels absent from the document
	setWords  int  // total words of the document-owned sets above
}

// handles maps pre indexes to a fresh slice of node handles.
func (d *Document) handles(pres []int32) []*Node {
	if len(pres) == 0 {
		return nil
	}
	out := make([]*Node, len(pres))
	for i, p := range pres {
		out[i] = &d.nodes[p]
	}
	return out
}

// attrValue returns the value of attribute index i.
func (d *Document) attrValue(i int32) string {
	return d.attrText[d.attrValOff[i]:d.attrValOff[i+1]]
}

// Root returns the synthetic document root (the node selected by "/").
func (d *Document) Root() *Node { return &d.nodes[0] }

// Size returns |dom|: the number of nodes excluding the document root.
func (d *Document) Size() int { return len(d.nodes) - 1 }

// NumNodes returns the total node count including the document root; it is
// the universe size of node Sets over this document.
func (d *Document) NumNodes() int { return len(d.nodes) }

// Node returns the node with the given document-order index.
func (d *Document) Node(pre int) *Node { return &d.nodes[pre] }

// StringValueAt returns strval of the node with the given pre index; it is
// Node(pre).StringValue() without the handle.
func (d *Document) StringValueAt(pre int) string {
	return d.text[d.topo.TextStart[pre]:d.topo.TextEnd[pre]]
}

// MemBytes returns the document's in-memory footprint in bytes: the node
// handles, the topology and attribute columns, the id index, the text and
// attribute bytes, the label and attribute-name tables and the label
// bitsets. The id index is counted at its full size even before its first
// use builds it. Map and struct headers are not counted.
func (d *Document) MemBytes() int64 {
	b := int64(len(d.nodes))*int64(unsafe.Sizeof(Node{})) + d.topo.Bytes()
	b += 4 * int64(len(d.attrOff)+len(d.attrName)+len(d.attrValOff)+d.idCount)
	b += int64(len(d.text)+len(d.attrText)) + 8*int64(d.setWords)
	for _, l := range d.labels {
		b += int64(len(l))
	}
	for _, a := range d.attrNames {
		b += int64(len(a))
	}
	return b
}

// idValue returns the value of node p's first "id" attribute, and whether
// it has one.
func (d *Document) idValue(p int32) (string, bool) {
	for i := d.attrOff[p]; i < d.attrOff[p+1]; i++ {
		if d.attrName[i] == d.idName {
			return d.attrValue(i), true
		}
	}
	return "", false
}

// lookupID returns the pre index of the node ByID would return, or -1.
func (d *Document) lookupID(key string) int {
	d.idOnce.Do(d.buildIDIndex)
	i, ok := slices.BinarySearchFunc(d.idIndex, key, func(p int32, k string) int {
		v, _ := d.idValue(p)
		return strings.Compare(v, k)
	})
	if !ok {
		return -1
	}
	return int(d.idIndex[i])
}

// ByID returns the node whose "id" attribute equals the given key, or nil.
// When several nodes share an id, the first in document order wins, per the
// XPath 1.0 deref_ids semantics.
func (d *Document) ByID(id string) *Node {
	if p := d.lookupID(id); p >= 0 {
		return &d.nodes[p]
	}
	return nil
}

// DerefIDs interprets s as a whitespace-separated list of keys and returns
// the set of nodes whose ids are contained in the list (§2.1 deref_ids).
func (d *Document) DerefIDs(s string) *Set {
	out := NewSet(d)
	d.DerefIDsInto(out, s)
	return out
}

// DerefIDsInto adds deref_ids(s) to dst. It is the allocation-free form of
// DerefIDs used by the axis kernels: the key list is tokenized in place
// (same whitespace classes as strings.Fields) and dst is not cleared.
func (d *Document) DerefIDsInto(dst *Set, s string) {
	forEachField(s, func(key string) bool {
		if p := d.lookupID(key); p >= 0 {
			dst.AddPre(p)
		}
		return true
	})
}

// DerefIDsIntersect reports whether deref_ids(s) ∩ y ≠ ∅ without
// materializing the dereferenced set.
func (d *Document) DerefIDsIntersect(s string, y *Set) bool {
	hit := false
	forEachField(s, func(key string) bool {
		if p := d.lookupID(key); p >= 0 && y.HasPre(p) {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// forEachField calls f for every whitespace-separated field of s (the
// fields strings.Fields would return), stopping early when f returns false.
func forEachField(s string, f func(string) bool) {
	start := -1
	for i, r := range s {
		if isSpaceRune(r) {
			if start >= 0 {
				if !f(s[start:i]) {
					return
				}
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		f(s[start:])
	}
}

// isSpaceRune mirrors unicode.IsSpace for the rune classes strings.Fields
// splits on, with the ASCII fast path inlined.
func isSpaceRune(r rune) bool {
	switch r {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	case 0x85, 0xA0:
		return true
	}
	return r > 0xFF && unicode.IsSpace(r)
}

// LabelSet returns T(t) for a tag name t: the set of nodes labeled t. The
// returned set is cached and shared; callers must not modify it.
func (d *Document) LabelSet(label string) *Set {
	if id, ok := d.labelIDs[label]; ok {
		return d.labelSets[id]
	}
	return d.emptySet
}

// AllElements returns T(*): every node except the document root. The
// returned set is shared; callers must not modify it.
func (d *Document) AllElements() *Set { return d.allElems }

// AllNodes returns the set matched by node(): every node including the
// document root. The returned set is shared; callers must not modify it.
func (d *Document) AllNodes() *Set { return d.allNodes }

// SortDocOrder sorts a slice of nodes into document order in place.
func SortDocOrder(nodes []*Node) {
	slices.SortFunc(nodes, func(a, b *Node) int { return int(a.pre - b.pre) })
}
