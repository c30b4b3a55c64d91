package xmltree

import (
	"math/bits"
	"strings"
)

// Set is a set of nodes of one Document, represented as a bitset over the
// document-order index. This is the node-set representation assumed by
// Definition 1 of the paper: unions, intersections and membership are cheap,
// and iteration enumerates nodes in document order (or reverse document
// order), which the axis functions and position/size loops require.
//
// The cardinality is maintained eagerly by every mutating method, so all
// read methods (Len, IsEmpty, Has, iteration, …) are pure and safe for any
// number of concurrent readers once mutation has ceased. (An earlier lazy
// Len cache wrote the set on a read path — a data race when a shared result
// set was read concurrently.)
//
// The zero value is not useful; use NewSet.
type Set struct {
	doc   *Document
	words []uint64
	n     int // cardinality, maintained eagerly by all mutators
}

// NewSet returns an empty set over the given document's nodes.
func NewSet(doc *Document) *Set {
	return &Set{doc: doc, words: make([]uint64, (doc.NumNodes()+63)/64)}
}

// Document returns the document this set draws its nodes from.
func (s *Set) Document() *Document { return s.doc }

// Words exposes the set's backing bit words (bit i of word w is the node
// with pre index w*64+i). The slice is the live backing store: callers must
// treat it as read-only, and writes to the set invalidate derived counts.
// It exists for the word-at-a-time axis kernels of internal/axes.
//
//xpathlint:noalloc
func (s *Set) Words() []uint64 { return s.words }

// Add inserts the node into the set.
//
//xpathlint:noalloc
func (s *Set) Add(node *Node) { s.AddPre(int(node.pre)) }

// AddPre inserts the node with the given document-order index.
//
//xpathlint:noalloc
func (s *Set) AddPre(pre int) {
	w, b := pre/64, uint(pre%64)
	if s.words[w]&(1<<b) == 0 {
		s.words[w] |= 1 << b
		s.n++
	}
}

// AddRange inserts every node with pre index in [lo, hi), word-parallel.
//
//xpathlint:noalloc
func (s *Set) AddRange(lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo/64, (hi-1)/64
	loMask := ^uint64(0) << uint(lo%64)
	hiMask := ^uint64(0) >> uint(63-(hi-1)%64)
	if loW == hiW {
		s.orWord(loW, loMask&hiMask)
		return
	}
	s.orWord(loW, loMask)
	for w := loW + 1; w < hiW; w++ {
		s.orWord(w, ^uint64(0))
	}
	s.orWord(hiW, hiMask)
}

// orWord ORs a mask into one word, keeping the cardinality exact.
//
//xpathlint:noalloc
func (s *Set) orWord(w int, mask uint64) {
	old := s.words[w]
	s.words[w] = old | mask
	s.n += bits.OnesCount64(mask &^ old)
}

// Remove deletes the node from the set.
func (s *Set) Remove(node *Node) { s.RemovePre(int(node.pre)) }

// RemovePre deletes the node with the given document-order index.
//
//xpathlint:noalloc
func (s *Set) RemovePre(pre int) {
	w, b := pre/64, uint(pre%64)
	if s.words[w]&(1<<b) != 0 {
		s.words[w] &^= 1 << b
		s.n--
	}
}

// Has reports whether the node is in the set.
func (s *Set) Has(node *Node) bool { return s.HasPre(int(node.pre)) }

// HasPre reports whether the node with the given document-order index is in
// the set.
//
//xpathlint:noalloc
func (s *Set) HasPre(pre int) bool {
	return s.words[pre/64]&(1<<uint(pre%64)) != 0
}

// Len returns the number of nodes in the set. It is a pure read.
func (s *Set) Len() int { return s.n }

// IsEmpty reports whether the set contains no nodes.
func (s *Set) IsEmpty() bool { return s.n == 0 }

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{doc: s.doc, words: w, n: s.n}
}

// CopyFrom makes s an exact copy of t (both over the same document),
// reusing s's backing words.
//
//xpathlint:noalloc
func (s *Set) CopyFrom(t *Set) {
	copy(s.words, t.words)
	s.n = t.n
}

// Clear removes all nodes from the set.
//
//xpathlint:noalloc
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.n = 0
}

// UnionWith adds every node of t to s (s ∪= t).
//
//xpathlint:noalloc
func (s *Set) UnionWith(t *Set) {
	n := 0
	for i, w := range t.words {
		v := s.words[i] | w
		s.words[i] = v
		n += bits.OnesCount64(v)
	}
	s.n = n
}

// IntersectWith removes from s every node not in t (s ∩= t).
//
//xpathlint:noalloc
func (s *Set) IntersectWith(t *Set) {
	n := 0
	for i := range s.words {
		v := s.words[i] & t.words[i]
		s.words[i] = v
		n += bits.OnesCount64(v)
	}
	s.n = n
}

// SubtractWith removes from s every node in t (s −= t).
//
//xpathlint:noalloc
func (s *Set) SubtractWith(t *Set) {
	n := 0
	for i := range s.words {
		v := s.words[i] &^ t.words[i]
		s.words[i] = v
		n += bits.OnesCount64(v)
	}
	s.n = n
}

// Union returns a new set s ∪ t.
func (s *Set) Union(t *Set) *Set {
	out := s.Clone()
	out.UnionWith(t)
	return out
}

// Intersect returns a new set s ∩ t.
func (s *Set) Intersect(t *Set) *Set {
	out := s.Clone()
	out.IntersectWith(t)
	return out
}

// Equal reports whether s and t contain exactly the same nodes.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t is nonempty.
func (s *Set) Intersects(t *Set) bool {
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// First returns the first node of the set in document order
// (first_<doc of §2.1), or nil if the set is empty.
func (s *Set) First() *Node {
	if pre := s.FirstPre(); pre >= 0 {
		return &s.doc.nodes[pre]
	}
	return nil
}

// FirstPre returns the pre index of the first node in document order, or -1.
func (s *Set) FirstPre() int {
	for i, w := range s.words {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Last returns the last node of the set in document order, or nil.
func (s *Set) Last() *Node {
	if pre := s.LastPre(); pre >= 0 {
		return &s.doc.nodes[pre]
	}
	return nil
}

// LastPre returns the pre index of the last node in document order, or -1.
func (s *Set) LastPre() int {
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return i*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// ForEach calls f for every node of the set in document order.
func (s *Set) ForEach(f func(*Node)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(&s.doc.nodes[i*64+b])
			w &^= 1 << uint(b)
		}
	}
}

// ForEachPre calls f for every member's pre index in document order.
func (s *Set) ForEachPre(f func(int)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(i*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// ForEachReverse calls f for every node of the set in reverse document
// order, the iteration order <doc,χ of the backward axes (§2.1).
func (s *Set) ForEachReverse(f func(*Node)) {
	for i := len(s.words) - 1; i >= 0; i-- {
		w := s.words[i]
		for w != 0 {
			b := 63 - bits.LeadingZeros64(w)
			f(&s.doc.nodes[i*64+b])
			w &^= 1 << uint(b)
		}
	}
}

// Nodes returns the set's nodes as a fresh slice in document order.
func (s *Set) Nodes() []*Node {
	out := make([]*Node, 0, s.Len())
	s.ForEach(func(n *Node) { out = append(out, n) })
	return out
}

// NodesReverse returns the set's nodes as a fresh slice in reverse document
// order.
func (s *Set) NodesReverse() []*Node {
	out := make([]*Node, 0, s.Len())
	s.ForEachReverse(func(n *Node) { out = append(out, n) })
	return out
}

// AppendTo appends the set's nodes in document order to dst and returns the
// extended slice; it is the allocation-conscious form of Nodes.
func (s *Set) AppendTo(dst []*Node) []*Node {
	s.ForEach(func(n *Node) { dst = append(dst, n) })
	return dst
}

// String renders the set as the labels-with-ids notation used in the paper's
// examples, e.g. "{x11, x12}". Nodes without an id attribute render by label
// and document-order index.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("{")
	first := true
	s.ForEach(func(n *Node) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		if id, ok := n.Attr("id"); ok {
			b.WriteString("x" + id)
		} else if n.IsRoot() {
			b.WriteString("/")
		} else {
			b.WriteString(n.Label())
		}
	})
	b.WriteString("}")
	return b.String()
}

// SetFromNodes builds a set containing the given nodes, which must all
// belong to doc.
func SetFromNodes(doc *Document, nodes []*Node) *Set {
	s := NewSet(doc)
	for _, n := range nodes {
		s.Add(n)
	}
	return s
}

// Singleton returns the set {n}.
func Singleton(n *Node) *Set {
	s := NewSet(n.doc)
	s.Add(n)
	return s
}
