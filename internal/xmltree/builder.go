package xmltree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/trace"
)

// errBuilderDone is returned by a Builder used after a successful Done: the
// document owns the builder's columns from then on.
var errBuilderDone = errors.New("xmltree: Builder used after Done")

// Builder constructs documents programmatically, which the workload
// generators use to synthesize large documents without paying XML
// serialization costs. Calls must form a well-nested element sequence:
//
//	b := NewBuilder()
//	b.Start("a"); b.Text("hi"); b.Start("b"); b.End(); b.End()
//	doc, err := b.Done()
//
// The builder appends straight into the document's columns in preorder; the
// XML parser and the snapshot decoder build through it too, so there is one
// way a Document comes to be.
type Builder struct {
	// Per-node columns, appended as elements open (textEnd is filled in
	// when the element closes) and per-attribute columns.
	parent, labelID, textStart, textEnd, attrOff []int32
	attrName, attrValOff                         []int32
	text, attrText                               strings.Builder

	labels      []string
	labelIDs    map[string]int32
	attrNames   []string
	attrNameIDs map[string]int32

	stack    []int32 // open elements, the document root at the bottom
	rootKids int

	// res holds exact-size final columns reserved for resN nodes and resA
	// attributes; Done adopts them without a copy when the counts match.
	res        columns
	resN, resA int
	err        error
}

// NewBuilder returns a builder with an empty document root on the stack.
func NewBuilder() *Builder {
	b := &Builder{labelIDs: make(map[string]int32), attrNameIDs: make(map[string]int32), resN: -1}
	b.attrValOff = append(b.attrValOff, 0)
	b.open(b.intern(""))
	return b
}

// reserve sizes the builder for exactly nodes nodes (document root
// included), attrs attributes and the given text and attribute-text bytes,
// so building allocates every column once, at its final size. The snapshot
// decoder knows these counts from a first pass over its input.
func (b *Builder) reserve(nodes, attrs, textBytes, attrTextBytes int) {
	b.res = carve(nodes, attrs)
	b.resN, b.resA = nodes, attrs
	b.parent = append(b.res.parent[:0], b.parent...)
	b.labelID = append(b.res.labelID[:0], b.labelID...)
	b.textStart = append(b.res.textStart[:0], b.textStart...)
	b.textEnd = append(b.res.textEnd[:0], b.textEnd...)
	b.attrOff = append(b.res.attrOff[:0], b.attrOff...)
	b.attrName = append(b.res.attrName[:0], b.attrName...)
	b.attrValOff = append(b.res.attrValOff[:0], b.attrValOff...)
	b.text.Grow(textBytes)
	b.attrText.Grow(attrTextBytes)
}

// intern returns the dense label ID of label, assigning the next one on
// first sight (so IDs follow first appearance in document order).
func (b *Builder) intern(label string) int32 {
	id, ok := b.labelIDs[label]
	if !ok {
		id = int32(len(b.labels))
		b.labelIDs[label] = id
		b.labels = append(b.labels, label)
	}
	return id
}

// open appends a node with the given label ID as the last child of the
// innermost open element and makes it the innermost open element.
func (b *Builder) open(labelID int32) {
	p := int32(len(b.parent))
	top := int32(-1)
	if len(b.stack) > 0 {
		top = b.stack[len(b.stack)-1]
	}
	if top == 0 {
		b.rootKids++
	}
	b.parent = append(b.parent, top)
	b.labelID = append(b.labelID, labelID)
	b.textStart = append(b.textStart, int32(b.text.Len()))
	b.textEnd = append(b.textEnd, 0)
	b.attrOff = append(b.attrOff, int32(len(b.attrName)))
	b.stack = append(b.stack, p)
}

// attr appends an attribute to the most recently opened element; nameID
// indexes attrNames.
func (b *Builder) attr(nameID int32, value []byte, svalue string) {
	if b.attrText.Len()+len(value)+len(svalue) > math.MaxInt32 {
		b.err = fmt.Errorf("xmltree: attribute text exceeds %d bytes", math.MaxInt32)
		return
	}
	b.attrText.Write(value)
	b.attrText.WriteString(svalue)
	b.attrName = append(b.attrName, nameID)
	b.attrValOff = append(b.attrValOff, int32(b.attrText.Len()))
}

// attrNameID returns the attrNames index of name, assigning one on first
// sight. The string conversion in the lookup does not allocate.
func (b *Builder) attrNameID(name []byte) int32 {
	if id, ok := b.attrNameIDs[string(name)]; ok {
		return id
	}
	return b.attrNameIDString(string(name))
}

func (b *Builder) attrNameIDString(name string) int32 {
	id, ok := b.attrNameIDs[name]
	if !ok {
		id = int32(len(b.attrNames))
		b.attrNameIDs[name] = id
		b.attrNames = append(b.attrNames, name)
	}
	return id
}

// Start opens a new element with the given label and attributes.
func (b *Builder) Start(label string, attrs ...Attr) *Builder {
	if b.err != nil {
		return b
	}
	b.open(b.intern(label))
	for _, a := range attrs {
		b.attr(b.attrNameIDString(a.Name), nil, a.Value)
	}
	return b
}

// Text appends character data to the currently open element. Text directly
// under the document root is rejected (XML well-formedness).
func (b *Builder) Text(s string) *Builder {
	b.appendText(nil, s)
	return b
}

// appendText is Text for a byte slice or a string (one of them empty).
func (b *Builder) appendText(p []byte, s string) {
	if b.err != nil || len(p)+len(s) == 0 {
		return
	}
	if len(b.stack) == 1 {
		b.err = fmt.Errorf("xmltree: character data outside the document element")
		return
	}
	if b.text.Len()+len(p)+len(s) > math.MaxInt32 {
		b.err = fmt.Errorf("xmltree: document text exceeds %d bytes", math.MaxInt32)
		return
	}
	b.text.Write(p)
	b.text.WriteString(s)
}

// End closes the currently open element.
func (b *Builder) End() error {
	if b.err != nil {
		return b.err
	}
	if len(b.stack) <= 1 {
		b.err = fmt.Errorf("xmltree: End without matching Start")
		return b.err
	}
	b.textEnd[b.stack[len(b.stack)-1]] = int32(b.text.Len())
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// Elem emits a complete element with optional text content and no children;
// it is shorthand for Start+Text+End.
func (b *Builder) Elem(label, text string, attrs ...Attr) *Builder {
	b.Start(label, attrs...)
	b.Text(text)
	if err := b.End(); err != nil {
		return b
	}
	return b
}

// Count returns the number of nodes created so far, including the document
// root; generators use it to stop at a target |D|.
func (b *Builder) Count() int { return len(b.parent) }

// Depth returns the number of currently open elements (document root
// excluded).
func (b *Builder) Depth() int { return len(b.stack) - 1 }

// columns is the int32 storage of one document, carved out of a single
// allocation: the columns the builder appends to, then the ones Done
// derives from them.
type columns struct {
	parent, labelID, textStart, textEnd []int32 // n each
	attrOff                             []int32 // n+1
	attrName                            []int32 // a
	attrValOff                          []int32 // a+1
	start, end, level, sibIdx, subEnd   []int32 // n each
	kidOff                              []int32 // n+1
	kidList                             []int32 // n-1
}

// carve allocates the columns of a document with n nodes (n >= 1) and a
// attributes in one backing array.
func carve(n, a int) columns {
	backing := make([]int32, 12*n+2*a+2)
	next := func(k int) []int32 {
		s := backing[:k:k]
		backing = backing[k:]
		return s
	}
	var c columns
	c.parent, c.labelID, c.textStart, c.textEnd = next(n), next(n), next(n), next(n)
	c.attrOff, c.attrName, c.attrValOff = next(n+1), next(a), next(a+1)
	c.start, c.end, c.level, c.sibIdx, c.subEnd = next(n), next(n), next(n), next(n), next(n)
	c.kidOff, c.kidList = next(n+1), next(n-1)
	return c
}

// Done finalizes and returns the document. It fails if elements remain open,
// if no document element was produced, or if more than one top-level element
// was produced.
func (b *Builder) Done() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 1 {
		return nil, fmt.Errorf("xmltree: %d element(s) left open", len(b.stack)-1)
	}
	if b.rootKids == 0 {
		return nil, fmt.Errorf("xmltree: document has no document element")
	}
	if b.rootKids > 1 {
		return nil, fmt.Errorf("xmltree: document has %d top-level elements, want 1", b.rootKids)
	}
	t0 := trace.Now()
	d := b.finish()
	b.err = errBuilderDone
	mBuildNs.Observe(trace.Now() - t0)
	mTopoBytes.Add(d.topo.Bytes())
	mDocBytes.Add(d.MemBytes())
	return d, nil
}

// finish moves the builder's columns into a Document and derives the rest:
// children lists, levels, sibling indexes, subtree ends, event numbers and
// label sets (the id index waits for its first use). Every loop is a flat
// pass over pre indexes.
func (b *Builder) finish() *Document {
	n, a := len(b.parent), len(b.attrName)
	b.textEnd[0] = int32(b.text.Len())
	b.attrOff = append(b.attrOff, int32(a))
	c := b.res
	if n != b.resN || a != b.resA {
		c = carve(n, a)
		copy(c.parent, b.parent)
		copy(c.labelID, b.labelID)
		copy(c.textStart, b.textStart)
		copy(c.textEnd, b.textEnd)
		copy(c.attrOff, b.attrOff)
		copy(c.attrName, b.attrName)
		copy(c.attrValOff, b.attrValOff)
	}
	d := &Document{
		topo: Topology{
			Parent: c.parent, Start: c.start, End: c.end, Level: c.level,
			SibIdx: c.sibIdx, SubEnd: c.subEnd, LabelID: c.labelID,
			TextStart: c.textStart, TextEnd: c.textEnd,
			KidOff: c.kidOff, KidList: c.kidList,
		},
		text:       exactString(&b.text, b.resN >= 0),
		attrOff:    c.attrOff,
		attrName:   c.attrName,
		attrValOff: c.attrValOff,
		attrNames:  b.attrNames,
		attrText:   exactString(&b.attrText, b.resN >= 0),
		idName:     -1,
		labels:     b.labels,
		labelIDs:   b.labelIDs,
	}
	if id, ok := b.attrNameIDs["id"]; ok {
		d.idName = id
	}
	t := &d.topo

	// Children lists in CSR form. Parents precede their children in pre
	// order, so one forward pass places every child and derives its level
	// and sibling index; SubEnd serves as the per-parent fill counter until
	// the reverse pass below overwrites it.
	for p := 1; p < n; p++ {
		t.KidOff[t.Parent[p]+1]++
	}
	for p := 0; p < n; p++ {
		t.KidOff[p+1] += t.KidOff[p]
	}
	for p := 1; p < n; p++ {
		par := t.Parent[p]
		i := t.SubEnd[par]
		t.SubEnd[par] = i + 1
		t.SibIdx[p] = i
		t.KidList[t.KidOff[par]+i] = int32(p)
		t.Level[p] = t.Level[par] + 1
	}
	// A leaf's subtree is [p, p+1); otherwise it ends where the last child's
	// subtree ends (children have higher pre, so they are already done).
	for p := n - 1; p >= 0; p-- {
		if t.KidOff[p] == t.KidOff[p+1] {
			t.SubEnd[p] = int32(p + 1)
		} else {
			t.SubEnd[p] = t.SubEnd[t.KidList[t.KidOff[p+1]-1]]
		}
	}
	// Event numbers: before p opens, its p predecessors have opened and all
	// but its Level[p] ancestors have closed; before p closes, the nodes of
	// [0, SubEnd[p]) have opened and all but p and its ancestors have closed.
	for p := 0; p < n; p++ {
		t.Start[p] = 2*int32(p) - t.Level[p]
		t.End[p] = 2*t.SubEnd[p] - t.Level[p] - 1
	}

	d.nodes = make([]Node, n)
	for p := range d.nodes {
		d.nodes[p] = Node{doc: d, pre: int32(p)}
	}
	d.buildSets()
	for i := range d.attrName {
		if d.attrName[i] == d.idName {
			d.idCount++
		}
	}
	return d
}

// exactString returns the builder's contents without the slack a grown
// buffer carries; a reserved buffer is already exact and is adopted as is.
func exactString(sb *strings.Builder, reserved bool) string {
	if !reserved && sb.Cap()-sb.Len() > sb.Len()/8 {
		return strings.Clone(sb.String())
	}
	return sb.String()
}

// buildSets fills the label bitsets, T(*), node() and the shared empty set.
// All of them share one word array; labels that no element carries (the
// root's empty label, usually) map to the empty set.
func (d *Document) buildSets() {
	n := len(d.nodes)
	w := (n + 63) / 64
	t := &d.topo
	d.labelSets = make([]*Set, len(d.labels))
	slot := make([]int32, len(d.labels))
	used := 0
	for p := 1; p < n; p++ {
		if id := t.LabelID[p]; slot[id] == 0 {
			used++
			slot[id] = int32(used)
		}
	}
	sets := make([]Set, used+3)
	words := make([]uint64, (used+3)*w)
	for i := range sets {
		sets[i] = Set{doc: d, words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	d.setWords = len(words)
	d.emptySet, d.allNodes, d.allElems = &sets[0], &sets[1], &sets[2]
	d.allNodes.AddRange(0, n)
	d.allElems.AddRange(1, n)
	for id, s := range slot {
		if s == 0 {
			d.labelSets[id] = d.emptySet
		} else {
			d.labelSets[id] = &sets[2+s]
		}
	}
	for p := 1; p < n; p++ {
		d.labelSets[t.LabelID[p]].AddPre(p)
	}
}

// buildIDIndex sorts the nodes carrying an "id" attribute by id value,
// keeping only the first node in document order for each value.
func (d *Document) buildIDIndex() {
	if d.idCount == 0 {
		return
	}
	idx := make([]int32, 0, d.idCount)
	for p := range d.nodes {
		if _, ok := d.idValue(int32(p)); ok {
			idx = append(idx, int32(p))
		}
	}
	slices.SortFunc(idx, func(x, y int32) int {
		vx, _ := d.idValue(x)
		vy, _ := d.idValue(y)
		if c := strings.Compare(vx, vy); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	out := idx[:0]
	last := ""
	for i, p := range idx {
		v, _ := d.idValue(p)
		if i > 0 && v == last {
			continue
		}
		out = append(out, p)
		last = v
	}
	d.idIndex = out
}
