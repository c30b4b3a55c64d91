package xmltree

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

const sample = `<a id="10"><b id="11"><c id="12">21 22</c><c id="13">23 24</c><d id="14">100</d></b><b id="21"><c id="22">11 12</c><d id="23">13 14</d><d id="24">100</d></b></a>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestParseBasicShape(t *testing.T) {
	d := mustParse(t, sample)
	if d.Size() != 9 {
		t.Fatalf("Size = %d, want 9", d.Size())
	}
	if d.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", d.NumNodes())
	}
	root := d.Root()
	if !root.IsRoot() || root.Label() != "" || root.Parent() != nil {
		t.Errorf("root malformed: %+v", root)
	}
	a := root.Children()
	if len(a) != 1 || a[0].Label() != "a" {
		t.Fatalf("document element: %v", a)
	}
	if got := len(a[0].Children()); got != 2 {
		t.Errorf("a has %d children, want 2", got)
	}
}

func TestDocumentOrder(t *testing.T) {
	d := mustParse(t, sample)
	wantIDs := []string{"10", "11", "12", "13", "14", "21", "22", "23", "24"}
	for i, n := range d.AllNodes().Nodes()[1:] {
		id, _ := n.Attr("id")
		if id != wantIDs[i] {
			t.Errorf("node %d: id %s, want %s", i+1, id, wantIDs[i])
		}
		if n.Pre() != i+1 {
			t.Errorf("node %s: Pre = %d, want %d", id, n.Pre(), i+1)
		}
	}
}

func TestStringValue(t *testing.T) {
	d := mustParse(t, sample)
	cases := map[string]string{
		"12": "21 22",
		"14": "100",
		"11": "21 2223 24100",
		"10": "21 2223 2410011 1213 14100",
	}
	for id, want := range cases {
		n := d.ByID(id)
		if n == nil {
			t.Fatalf("no node %s", id)
		}
		if got := n.StringValue(); got != want {
			t.Errorf("strval(x%s) = %q, want %q", id, got, want)
		}
	}
	if got := d.Root().StringValue(); got != d.ByID("10").StringValue() {
		t.Errorf("strval(root) = %q, want document element's", got)
	}
}

func TestInterleavedText(t *testing.T) {
	d := mustParse(t, `<a>x<b>y</b>z</a>`)
	if got := d.Root().StringValue(); got != "xyz" {
		t.Errorf("strval = %q, want xyz (interleaving must be preserved)", got)
	}
}

func TestEventNumbering(t *testing.T) {
	d := mustParse(t, sample)
	x11, x14, x21 := d.ByID("11"), d.ByID("14"), d.ByID("21")
	if !x11.IsAncestorOf(x14) {
		t.Error("x11 should be an ancestor of x14")
	}
	if x11.IsAncestorOf(x21) {
		t.Error("x11 is not an ancestor of x21")
	}
	if !x14.IsDescendantOf(d.ByID("10")) {
		t.Error("x14 should descend from x10")
	}
	if x21.StartEvent() <= x14.EndEvent() {
		t.Error("x21 must follow x14 in event order")
	}
}

func TestIDs(t *testing.T) {
	d := mustParse(t, sample)
	if d.ByID("13") == nil || d.ByID("13").Label() != "c" {
		t.Error("ByID(13) wrong")
	}
	if d.ByID("nope") != nil {
		t.Error("ByID(nope) should be nil")
	}
	set := d.DerefIDs(" 11\t24  99 ")
	if set.Len() != 2 || !set.Has(d.ByID("11")) || !set.Has(d.ByID("24")) {
		t.Errorf("DerefIDs = %v", set)
	}
}

func TestLabelSets(t *testing.T) {
	d := mustParse(t, sample)
	if got := d.LabelSet("c").Len(); got != 3 {
		t.Errorf("|T(c)| = %d, want 3", got)
	}
	if got := d.LabelSet("zzz").Len(); got != 0 {
		t.Errorf("|T(zzz)| = %d, want 0", got)
	}
	if got := d.AllElements().Len(); got != 9 {
		t.Errorf("|T(*)| = %d, want 9", got)
	}
	if got := d.AllNodes().Len(); got != 10 {
		t.Errorf("|node()| = %d, want 10", got)
	}
	if d.AllElements().Has(d.Root()) {
		t.Error("T(*) must not contain the document root")
	}
}

func TestSiblings(t *testing.T) {
	d := mustParse(t, sample)
	x13 := d.ByID("13")
	fs := x13.FollowingSiblings()
	if len(fs) != 1 || fs[0] != d.ByID("14") {
		t.Errorf("following siblings of x13: %v", fs)
	}
	ps := x13.PrecedingSiblings()
	if len(ps) != 1 || ps[0] != d.ByID("12") {
		t.Errorf("preceding siblings of x13: %v", ps)
	}
	if x13.SiblingIndex() != 1 {
		t.Errorf("SiblingIndex(x13) = %d, want 1", x13.SiblingIndex())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Done(); err == nil {
		t.Error("empty document must fail")
	}
	b := NewBuilder()
	b.Start("a")
	if _, err := b.Done(); err == nil {
		t.Error("unclosed element must fail")
	}
	b2 := NewBuilder()
	b2.Text("stray")
	if _, err := b2.Done(); err == nil {
		t.Error("text outside document element must fail")
	}
	b3 := NewBuilder()
	b3.Start("a")
	_ = b3.End()
	b3.Start("b")
	_ = b3.End()
	if _, err := b3.Done(); err == nil {
		t.Error("two top-level elements must fail")
	}
	b4 := NewBuilder()
	b4.Start("a")
	_ = b4.End()
	if err := b4.End(); err == nil {
		t.Error("unbalanced End must fail")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{``, `<a>`, `<a></b>`, `text only`, `<a/><b/>`,
		// Dropping the prefix would leave a local name that is no XML name.
		`<p:a xmlns:p="u" p:0="0"/>`, `<p:0/>`} {
		if _, err := ParseString(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseString(%q) = %v, want an ErrMalformed error", bad, err)
		}
	}
}

func TestXMLRoundTrip(t *testing.T) {
	d := mustParse(t, sample)
	again := mustParse(t, d.XMLString())
	if again.Size() != d.Size() {
		t.Fatalf("round trip changed size: %d vs %d", again.Size(), d.Size())
	}
	for i := range d.AllNodes().Nodes() {
		a, b := d.AllNodes().Nodes()[i], again.AllNodes().Nodes()[i]
		if a.Label() != b.Label() || a.StringValue() != b.StringValue() {
			t.Errorf("node %d differs after round trip", i)
		}
	}
}

func TestXMLEscaping(t *testing.T) {
	d := mustParse(t, `<a m="&lt;&amp;&quot;">x &lt; &amp; y</a>`)
	el := d.Root().Children()[0]
	if v, _ := el.Attr("m"); v != `<&"` {
		t.Errorf("attr = %q", v)
	}
	if el.StringValue() != "x < & y" {
		t.Errorf("strval = %q", el.StringValue())
	}
	again := mustParse(t, d.XMLString())
	if again.Root().StringValue() != d.Root().StringValue() {
		t.Error("escaping broken in round trip")
	}
}

func TestSetOps(t *testing.T) {
	d := mustParse(t, sample)
	s1 := NewSet(d)
	s1.Add(d.ByID("11"))
	s1.Add(d.ByID("13"))
	s2 := NewSet(d)
	s2.Add(d.ByID("13"))
	s2.Add(d.ByID("24"))

	if got := s1.Union(s2).Len(); got != 3 {
		t.Errorf("union len = %d", got)
	}
	if got := s1.Intersect(s2).Len(); got != 1 {
		t.Errorf("intersect len = %d", got)
	}
	if !s1.Intersects(s2) {
		t.Error("Intersects should be true")
	}
	s3 := s1.Clone()
	s3.SubtractWith(s2)
	if s3.Len() != 1 || !s3.Has(d.ByID("11")) {
		t.Errorf("subtract: %v", s3)
	}
	if s1.First() != d.ByID("11") || s1.Last() != d.ByID("13") {
		t.Errorf("first/last wrong")
	}
	s1.Remove(d.ByID("11"))
	if s1.Len() != 1 {
		t.Errorf("after remove: %d", s1.Len())
	}
	s1.Clear()
	if !s1.IsEmpty() {
		t.Error("clear failed")
	}
}

func TestSetIterationOrder(t *testing.T) {
	d := mustParse(t, sample)
	s := NewSet(d)
	for _, id := range []string{"24", "11", "14"} {
		s.Add(d.ByID(id))
	}
	var fwd, rev []string
	s.ForEach(func(n *Node) { id, _ := n.Attr("id"); fwd = append(fwd, id) })
	s.ForEachReverse(func(n *Node) { id, _ := n.Attr("id"); rev = append(rev, id) })
	if !reflect.DeepEqual(fwd, []string{"11", "14", "24"}) {
		t.Errorf("forward order: %v", fwd)
	}
	if !reflect.DeepEqual(rev, []string{"24", "14", "11"}) {
		t.Errorf("reverse order: %v", rev)
	}
	if nodes := s.Nodes(); len(nodes) != 3 || nodes[0] != d.ByID("11") {
		t.Errorf("Nodes: %v", nodes)
	}
}

func TestSetString(t *testing.T) {
	d := mustParse(t, sample)
	s := NewSet(d)
	s.Add(d.ByID("11"))
	s.Add(d.ByID("12"))
	if got := s.String(); got != "{x11, x12}" {
		t.Errorf("String = %q", got)
	}
	if got := NewSet(d).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// buildRandomDoc makes a random document for property tests.
func buildRandomDoc(seed int64, n int) *Document {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	b.Start("r")
	for b.Count() < n {
		switch {
		case b.Depth() > 1 && rng.Intn(3) == 0:
			_ = b.End()
		default:
			b.Start([]string{"a", "b", "c"}[rng.Intn(3)])
		}
	}
	for b.Depth() > 0 {
		_ = b.End()
	}
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}

// TestQuickSetUnionCommutes: s ∪ t == t ∪ s and related algebra, via
// testing/quick over random membership vectors.
func TestQuickSetUnionCommutes(t *testing.T) {
	d := buildRandomDoc(7, 40)
	f := func(aBits, bBits uint64) bool {
		a, b := NewSet(d), NewSet(d)
		for i := 0; i < d.NumNodes(); i++ {
			if aBits&(1<<uint(i%64)) != 0 {
				a.AddPre(i)
			}
			if bBits&(1<<uint(i%64)) != 0 {
				b.AddPre(i)
			}
			aBits = aBits>>1 | aBits<<63
			bBits = bBits>>1 | bBits<<63
		}
		ab, ba := a.Union(b), b.Union(a)
		inter := a.Intersect(b)
		// |A∪B| = |A| + |B| − |A∩B|, union commutes, intersect ⊆ union.
		return ab.Equal(ba) &&
			ab.Len() == a.Len()+b.Len()-inter.Len() &&
			inter.Union(ab).Equal(ab)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPrePostConsistency: for every pair of nodes exactly one of
// ancestor / descendant / preceding / following / equal holds.
func TestQuickPrePostConsistency(t *testing.T) {
	f := func(seed int64) bool {
		d := buildRandomDoc(seed, 30)
		nodes := d.AllNodes().Nodes()
		for _, x := range nodes {
			for _, y := range nodes {
				rels := 0
				if x == y {
					rels++
				}
				if x.IsAncestorOf(y) {
					rels++
				}
				if y.IsAncestorOf(x) {
					rels++
				}
				if y.StartEvent() > x.EndEvent() {
					rels++ // y follows x
				}
				if y.EndEvent() < x.StartEvent() {
					rels++ // y precedes x
				}
				if rels != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickStringValueConcat: strval(n) equals the concatenation of the
// text under n in document order, checked against a reference computed
// from a shadow tree recorded alongside the builder calls.
func TestQuickStringValueConcat(t *testing.T) {
	// shadow mirrors one element: its content in order, each entry either
	// a text piece or (child >= 0) the pre index of a child element.
	type piece struct {
		text  string
		child int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		content := [][]piece{nil, nil} // root, r
		content[0] = []piece{{child: 1}}
		open := []int{1}
		b := NewBuilder()
		b.Start("r")
		for b.Count() < 20 {
			top := open[len(open)-1]
			switch rng.Intn(4) {
			case 0:
				if b.Depth() > 1 {
					_ = b.End()
					open = open[:len(open)-1]
				}
			case 1:
				s := []string{"x", "10", " ", "zz"}[rng.Intn(4)]
				b.Text(s)
				content[top] = append(content[top], piece{text: s, child: -1})
			default:
				b.Start("e")
				content[top] = append(content[top], piece{child: len(content)})
				open = append(open, len(content))
				content = append(content, nil)
			}
		}
		for b.Depth() > 0 {
			_ = b.End()
		}
		d, err := b.Done()
		if err != nil {
			return false
		}
		var ref func(p int, sb *strings.Builder)
		ref = func(p int, sb *strings.Builder) {
			for _, pc := range content[p] {
				if pc.child >= 0 {
					ref(pc.child, sb)
				} else {
					sb.WriteString(pc.text)
				}
			}
		}
		for p := range content {
			var sb strings.Builder
			ref(p, &sb)
			if d.Node(p).StringValue() != sb.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIDIndexFirstWinsAndConcurrentFirstUse: the id index is built on the
// first lookup; concurrent first lookups agree, and of several nodes
// sharing an id value the first in document order wins.
func TestIDIndexFirstWinsAndConcurrentFirstUse(t *testing.T) {
	d := mustParse(t, `<a id="z"><b id="y" id="x"/><c id="y"/><d id="10"/><e id="9"/><f id="z"/></a>`)
	want := map[string]int{"z": 1, "y": 2, "x": -1, "10": 4, "9": 5, "nope": -1}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key, pre := range want {
				got := -1
				if n := d.ByID(key); n != nil {
					got = n.Pre()
				}
				if got != pre {
					errs <- fmt.Sprintf("ByID(%q) = node %d, want %d", key, got, pre)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := d.DerefIDs("9 z y z").String(); got != d.DerefIDs("y 9 z").String() {
		t.Errorf("DerefIDs order-dependent: %s", got)
	}
}
