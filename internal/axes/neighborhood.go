package axes

import (
	"repro/internal/xmltree"
)

// Neighborhood returns the candidate list {z ∈ dom ∪ {root} | x χ z} in the
// order <doc,χ of Section 2.1: document order for the forward axes, reverse
// document order for the backward axes. This is the list the MINCONTEXT
// position/size loops (Section 6 pseudo-code: "let Z = {z1,…,zm} ordered
// according to axis χ") iterate; idxχ(z, Z) is the 1-based slice index.
//
// The result is appended to dst, which may be nil; the returned slice is
// valid until dst is reused.
func Neighborhood(a Axis, x *xmltree.Node, dst []*xmltree.Node) []*xmltree.Node {
	switch a {
	case Self:
		dst = append(dst, x)

	case Child:
		doc := x.Document()
		for _, k := range doc.Topology().Kids(int32(x.Pre())) {
			dst = append(dst, doc.Node(int(k)))
		}

	case Parent:
		if p := x.Parent(); p != nil {
			dst = append(dst, p)
		}

	case Descendant, DescendantOrSelf:
		if a == DescendantOrSelf {
			dst = append(dst, x)
		}
		// The subtree is the contiguous pre range [pre+1, SubEnd[pre]), and
		// pre order is document order — no recursion needed.
		doc := x.Document()
		t := doc.Topology()
		for pre := x.Pre() + 1; pre < int(t.SubEnd[x.Pre()]); pre++ {
			dst = append(dst, doc.Node(pre))
		}

	case Ancestor, AncestorOrSelf:
		// Reverse document order: nearest ancestor first.
		if a == AncestorOrSelf {
			dst = append(dst, x)
		}
		for p := x.Parent(); p != nil; p = p.Parent() {
			dst = append(dst, p)
		}

	case Following:
		// Everything after x's subtree: the pre range [SubEnd[pre], |D|),
		// already in document order.
		doc := x.Document()
		t := doc.Topology()
		for pre := int(t.SubEnd[x.Pre()]); pre < doc.NumNodes(); pre++ {
			dst = append(dst, doc.Node(pre))
		}

	case Preceding:
		// All nodes whose end event is before x's start event, in reverse
		// document order; the flat End column avoids the pointer chase.
		doc := x.Document()
		t := doc.Topology()
		start := int32(x.StartEvent())
		for pre := x.Pre() - 1; pre >= 0; pre-- {
			if t.End[pre] < start {
				dst = append(dst, doc.Node(pre))
			}
		}

	case FollowingSibling, PrecedingSibling:
		if x.IsRoot() {
			break
		}
		doc := x.Document()
		t := doc.Topology()
		sibs := t.Kids(t.Parent[x.Pre()])
		if a == FollowingSibling {
			for _, k := range sibs[t.SibIdx[x.Pre()]+1:] {
				dst = append(dst, doc.Node(int(k)))
			}
			break
		}
		// Reverse document order: nearest sibling first.
		for i := t.SibIdx[x.Pre()] - 1; i >= 0; i-- {
			dst = append(dst, doc.Node(int(sibs[i])))
		}

	case ID:
		// Document order, per <doc,id being standard document order.
		dst = x.Document().DerefIDs(x.StringValue()).AppendTo(dst)

	default:
		panic("axes: Neighborhood: unknown axis " + a.String())
	}
	return dst
}

// NeighborhoodFiltered returns Neighborhood(a, x) restricted to members of
// keep, preserving the <doc,χ order. It is the "Z := {z ∈ Y | x χ z}" step
// of the Section 6 pseudo-code.
func NeighborhoodFiltered(a Axis, x *xmltree.Node, keep *xmltree.Set, dst []*xmltree.Node) []*xmltree.Node {
	switch a {
	// For the scan-based axes it is cheaper to test membership inline.
	case Following:
		end := x.EndEvent()
		keep.ForEach(func(n *xmltree.Node) {
			if n.StartEvent() > end {
				dst = append(dst, n)
			}
		})
		return dst
	case Preceding:
		start := x.StartEvent()
		keep.ForEachReverse(func(n *xmltree.Node) {
			if n.EndEvent() < start {
				dst = append(dst, n)
			}
		})
		return dst
	case Descendant, DescendantOrSelf:
		s, e := x.StartEvent(), x.EndEvent()
		keep.ForEach(func(n *xmltree.Node) {
			if n.StartEvent() > s && n.EndEvent() < e {
				dst = append(dst, n)
			} else if a == DescendantOrSelf && n == x {
				dst = append(dst, n)
			}
		})
		return dst
	}
	all := Neighborhood(a, x, nil)
	for _, n := range all {
		if keep.Has(n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// Related reports whether x χ y holds, in O(1) for the structural axes and
// O(|strval(x)|) for the id-axis.
func Related(a Axis, x, y *xmltree.Node) bool {
	switch a {
	case Self:
		return x == y
	case Child:
		return y.Parent() == x
	case Parent:
		return x.Parent() == y
	case Descendant:
		return y.IsDescendantOf(x)
	case Ancestor:
		return y.IsAncestorOf(x)
	case DescendantOrSelf:
		return x == y || y.IsDescendantOf(x)
	case AncestorOrSelf:
		return x == y || y.IsAncestorOf(x)
	case Following:
		return y.StartEvent() > x.EndEvent()
	case Preceding:
		return y.EndEvent() < x.StartEvent()
	case FollowingSibling:
		return x.Parent() != nil && y.Parent() == x.Parent() && y.SiblingIndex() > x.SiblingIndex()
	case PrecedingSibling:
		return x.Parent() != nil && y.Parent() == x.Parent() && y.SiblingIndex() < x.SiblingIndex()
	case ID:
		return x.Document().DerefIDs(x.StringValue()).Has(y)
	}
	panic("axes: Related: unknown axis " + a.String())
}

// OrderBy sorts nodes into the <doc,χ order of the axis: document order for
// forward axes, reverse document order for backward axes. It sorts in place.
func OrderBy(a Axis, nodes []*xmltree.Node) {
	xmltree.SortDocOrder(nodes)
	if a.IsReverse() {
		for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}
	}
}
