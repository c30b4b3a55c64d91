package axes

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

const sample = `<a id="10"><b id="11"><c id="12">21 22</c><c id="13">23 24</c><d id="14">100</d></b><b id="21"><c id="22">11 12</c><d id="23">13 14</d><d id="24">100</d></b></a>`

func doc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func byIDs(d *xmltree.Document, ids ...string) *xmltree.Set {
	s := xmltree.NewSet(d)
	for _, id := range ids {
		n := d.ByID(id)
		if n == nil {
			panic("no node " + id)
		}
		s.Add(n)
	}
	return s
}

func setIDs(s *xmltree.Set) []string {
	var out []string
	s.ForEach(func(n *xmltree.Node) {
		if n.IsRoot() {
			out = append(out, "/")
			return
		}
		id, _ := n.Attr("id")
		out = append(out, id)
	})
	return out
}

func eqIDs(t *testing.T, what string, got *xmltree.Set, want ...string) {
	t.Helper()
	g := setIDs(got)
	if len(g) != len(want) {
		t.Errorf("%s: got %v, want %v", what, g, want)
		return
	}
	for i := range g {
		if g[i] != want[i] {
			t.Errorf("%s: got %v, want %v", what, g, want)
			return
		}
	}
}

func TestApplyOnFigure2(t *testing.T) {
	d := doc(t)
	eqIDs(t, "child(x11)", Apply(Child, byIDs(d, "11")), "12", "13", "14")
	eqIDs(t, "parent(x12,x22)", Apply(Parent, byIDs(d, "12", "22")), "11", "21")
	eqIDs(t, "descendant(x11)", Apply(Descendant, byIDs(d, "11")), "12", "13", "14")
	eqIDs(t, "descendant-or-self(x21)", Apply(DescendantOrSelf, byIDs(d, "21")), "21", "22", "23", "24")
	eqIDs(t, "ancestor(x14)", Apply(Ancestor, byIDs(d, "14")), "/", "10", "11")
	eqIDs(t, "ancestor-or-self(x14)", Apply(AncestorOrSelf, byIDs(d, "14")), "/", "10", "11", "14")
	eqIDs(t, "following(x14)", Apply(Following, byIDs(d, "14")), "21", "22", "23", "24")
	eqIDs(t, "following(x12)", Apply(Following, byIDs(d, "12")), "13", "14", "21", "22", "23", "24")
	eqIDs(t, "preceding(x21)", Apply(Preceding, byIDs(d, "21")), "11", "12", "13", "14")
	eqIDs(t, "following-sibling(x12)", Apply(FollowingSibling, byIDs(d, "12")), "13", "14")
	eqIDs(t, "preceding-sibling(x14)", Apply(PrecedingSibling, byIDs(d, "14")), "12", "13")
	eqIDs(t, "self(x13)", Apply(Self, byIDs(d, "13")), "13")
}

func TestApplyEmpty(t *testing.T) {
	d := doc(t)
	for _, a := range All() {
		if got := Apply(a, xmltree.NewSet(d)); !got.IsEmpty() {
			t.Errorf("%v(∅) = %v, want ∅", a, setIDs(got))
		}
	}
}

func TestIDAxis(t *testing.T) {
	d := doc(t)
	// strval(x22) = "11 12" → nodes with ids 11 and 12.
	eqIDs(t, "id(x22)", Apply(ID, byIDs(d, "22")), "11", "12")
	// Inverse: nodes whose string value references x14 (id "14"):
	// strval(x23) = "13 14" → mentions id 14? "13 14" splits to 13, 14 → yes.
	inv := ApplyInverse(ID, byIDs(d, "14"))
	eqIDs(t, "id⁻¹(x14)", inv, "23")
}

func TestInverseRoundTrip(t *testing.T) {
	for _, a := range All() {
		if a == ID {
			continue
		}
		if got := a.Inverse().Inverse(); got != a {
			t.Errorf("Inverse(Inverse(%v)) = %v", a, got)
		}
	}
}

func TestIsReverse(t *testing.T) {
	rev := map[Axis]bool{Parent: true, Ancestor: true, AncestorOrSelf: true,
		Preceding: true, PrecedingSibling: true}
	for _, a := range All() {
		if a.IsReverse() != rev[a] {
			t.Errorf("IsReverse(%v) = %v", a, a.IsReverse())
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, ok := ByName(a.String())
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.String(), got, ok)
		}
	}
	if _, ok := ByName("attribute"); ok {
		t.Error("attribute axis must not resolve")
	}
}

func randomDoc(seed int64, n int) *xmltree.Document {
	rng := rand.New(rand.NewSource(seed))
	b := xmltree.NewBuilder()
	b.Start("r")
	for b.Count() < n {
		if b.Depth() > 1 && rng.Intn(3) == 0 {
			_ = b.End()
		} else {
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

// TestQuickApplyMatchesRelated: χ(X) computed set-at-a-time must equal the
// brute-force {y | ∃x ∈ X : Related(χ, x, y)} on random documents and
// random X, for every structural axis.
func TestQuickApplyMatchesRelated(t *testing.T) {
	f := func(seed int64, mask uint64) bool {
		d := randomDoc(seed, 25)
		x := xmltree.NewSet(d)
		for i := 0; i < d.NumNodes(); i++ {
			if mask&(1<<uint(i%64)) != 0 {
				x.AddPre(i)
			}
			mask = mask>>1 | mask<<63
		}
		for _, a := range All() {
			if a == ID {
				continue
			}
			got := Apply(a, x)
			want := xmltree.NewSet(d)
			for _, y := range d.AllNodes().Nodes() {
				found := false
				x.ForEach(func(xn *xmltree.Node) {
					if !found && Related(a, xn, y) {
						found = true
					}
				})
				if found {
					want.Add(y)
				}
			}
			if !got.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickInverseSymmetry: y ∈ χ({x}) ⇔ x ∈ χ⁻¹({y}) — Definition 1.
func TestQuickInverseSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDoc(seed, 20)
		for _, a := range All() {
			if a == ID {
				continue
			}
			for _, x := range d.AllNodes().Nodes() {
				fwd := Apply(a, xmltree.Singleton(x))
				for _, y := range d.AllNodes().Nodes() {
					back := ApplyInverse(a, xmltree.Singleton(y))
					if fwd.Has(y) != back.Has(x) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickNeighborhoodOrder: Neighborhood(χ, x) contains exactly
// {y | x χ y}, ordered by <doc,χ (document order, reversed for the
// backward axes).
func TestQuickNeighborhoodOrder(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDoc(seed, 25)
		for _, a := range All() {
			if a == ID {
				continue
			}
			for _, x := range d.AllNodes().Nodes() {
				nb := Neighborhood(a, x, nil)
				seen := make(map[*xmltree.Node]bool, len(nb))
				for i, y := range nb {
					if !Related(a, x, y) || seen[y] {
						return false
					}
					seen[y] = true
					if i > 0 {
						prev, cur := nb[i-1].Pre(), y.Pre()
						if a.IsReverse() && prev < cur {
							return false
						}
						if !a.IsReverse() && prev > cur {
							return false
						}
					}
				}
				for _, y := range d.AllNodes().Nodes() {
					if Related(a, x, y) && !seen[y] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartition: child-based partition axes cover dom: for any x,
// {x} ∪ ancestors ∪ descendants ∪ preceding ∪ following = all nodes.
func TestQuickPartition(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDoc(seed, 30)
		for _, x := range d.AllNodes().Nodes() {
			s := xmltree.Singleton(x)
			u := Apply(Ancestor, s)
			u.UnionWith(Apply(Descendant, s))
			u.UnionWith(Apply(Preceding, s))
			u.UnionWith(Apply(Following, s))
			u.Add(x)
			if !u.Equal(d.AllNodes()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNeighborhoodFiltered(t *testing.T) {
	d := doc(t)
	keep := byIDs(d, "13", "23", "24")
	got := NeighborhoodFiltered(Following, d.ByID("12"), keep, nil)
	if len(got) != 3 {
		t.Fatalf("filtered following: %d nodes", len(got))
	}
	for i, id := range []string{"13", "23", "24"} {
		if g, _ := got[i].Attr("id"); g != id {
			t.Errorf("pos %d: %s, want %s", i, g, id)
		}
	}
	// Reverse axis keeps reverse order.
	gotP := NeighborhoodFiltered(Preceding, d.ByID("23"), byIDs(d, "12", "14"), nil)
	if len(gotP) != 2 {
		t.Fatalf("filtered preceding: %d nodes", len(gotP))
	}
	if id, _ := gotP[0].Attr("id"); id != "14" {
		t.Errorf("preceding order: first is %s, want 14 (reverse doc order)", id)
	}
}

func TestOrderBy(t *testing.T) {
	d := doc(t)
	nodes := []*xmltree.Node{d.ByID("23"), d.ByID("11"), d.ByID("14")}
	OrderBy(Following, nodes)
	if id, _ := nodes[0].Attr("id"); id != "11" {
		t.Errorf("forward order starts with %s", id)
	}
	OrderBy(Ancestor, nodes)
	if id, _ := nodes[0].Attr("id"); id != "23" {
		t.Errorf("reverse order starts with %s", id)
	}
}
