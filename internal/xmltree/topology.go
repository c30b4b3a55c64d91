package xmltree

// Topology is the flat structure-of-arrays encoding of a document's tree
// shape, built once when the document is finished. All slices are indexed by
// the node's document-order (pre) index and are immutable after
// construction, so they are safe for any number of concurrent readers.
//
// The encoding exploits that a preorder numbering makes every subtree a
// contiguous pre range: node p's descendants are exactly the pre indexes
// [p+1, SubEnd[p]). The same argument makes the subtree's character data a
// contiguous range [TextStart[p], TextEnd[p]) of the document's text column.
// The set-at-a-time axis kernels of internal/axes run over these arrays and
// over raw bitset words, which is where their constant factor comes from.
type Topology struct {
	// Parent[p] is the pre index of p's parent, or -1 for the document root.
	Parent []int32
	// Start[p] and End[p] are the pre/post event numbers (StartEvent and
	// EndEvent of the node API): y is a descendant of x iff
	// Start[x] < Start[y] and End[y] < End[x].
	Start, End []int32
	// Level[p] is the node's depth; the document root has level 0.
	Level []int32
	// SibIdx[p] is the node's position among its parent's children.
	SibIdx []int32
	// SubEnd[p] is one past the pre index of p's last descendant: the
	// subtree rooted at p occupies exactly the pre range [p, SubEnd[p]).
	SubEnd []int32
	// LabelID[p] identifies the node's label in the document's label table
	// (Document.LabelCount/LabelByID); the root's empty label has an ID too.
	LabelID []int32
	// TextStart[p] and TextEnd[p] delimit strval(p) in the document's text
	// column: the character data between p's start and end tags.
	TextStart, TextEnd []int32
	// KidOff/KidList encode the children lists in CSR form: the children of
	// node p, in sibling order, are KidList[KidOff[p]:KidOff[p+1]].
	// len(KidOff) == NumNodes()+1.
	KidOff  []int32
	KidList []int32
}

// Topology returns the document's flat structure-of-arrays encoding. The
// returned struct and all of its slices are shared and must not be modified.
func (d *Document) Topology() *Topology { return &d.topo }

// Kids returns the children of the node with pre index p as a shared slice
// of pre indexes (the CSR row of the topology).
func (t *Topology) Kids(p int32) []int32 {
	return t.KidList[t.KidOff[p]:t.KidOff[p+1]]
}

// Bytes returns the memory footprint of the topology's column arrays in
// bytes (the structure-of-arrays encoding is the document's dominant
// axis-kernel working set, so the observability layer reports it).
func (t *Topology) Bytes() int64 {
	return 4 * int64(len(t.Parent)+len(t.Start)+len(t.End)+len(t.Level)+
		len(t.SibIdx)+len(t.SubEnd)+len(t.LabelID)+len(t.TextStart)+
		len(t.TextEnd)+len(t.KidOff)+len(t.KidList))
}

// LabelCount returns the number of distinct labels in the document
// (including the root's empty label).
func (d *Document) LabelCount() int { return len(d.labels) }

// LabelByID returns the canonical label string with the given dense ID.
func (d *Document) LabelByID(id int32) string { return d.labels[id] }

// LabelIDOf returns the dense ID of a label and whether the label occurs in
// the document at all.
func (d *Document) LabelIDOf(label string) (int32, bool) {
	id, ok := d.labelIDs[label]
	return id, ok
}

// LabelSetByID returns the per-labelID bitset T(label) for a dense label ID.
// The returned set is shared; callers must not modify it.
func (d *Document) LabelSetByID(id int32) *Set { return d.labelSets[id] }
