package xpath

// Tests for the public API surface: engine selection, options validation,
// variable bindings, result accessors and node navigation.

import (
	"math"
	"strings"
	"testing"
)

func TestParseDocumentErrors(t *testing.T) {
	if _, err := ParseDocumentString(`<a>`); err == nil {
		t.Error("unclosed element must fail")
	}
	if _, err := ParseDocument(strings.NewReader("")); err == nil {
		t.Error("empty input must fail")
	}
}

func TestCompileErrors(t *testing.T) {
	for _, bad := range []string{``, `@x`, `//a[`, `$v`} {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) should fail", bad)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on a bad query")
		}
	}()
	MustCompile(`///`)
}

func TestEngineNames(t *testing.T) {
	for _, e := range Engines() {
		name := e.String()
		back, ok := EngineByName(name)
		if !ok || back != e {
			t.Errorf("EngineByName(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := EngineByName("bogus"); ok {
		t.Error("bogus engine resolved")
	}
	if a, _ := EngineByName("auto"); a != EngineAuto {
		t.Error("auto must resolve")
	}
}

func TestOptionsValidation(t *testing.T) {
	doc, _ := ParseDocumentString(`<a><b/></a>`)
	q := MustCompile(`position()`)
	if _, err := q.EvaluateWith(doc, Options{Position: 5, Size: 2}); err == nil {
		t.Error("position > size must be rejected")
	}
	res, err := q.EvaluateWith(doc, Options{Position: 2, Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Number() != 2 {
		t.Errorf("position() = %v", res.Number())
	}
}

func TestVariableBindings(t *testing.T) {
	doc, _ := ParseDocumentString(`<a><b>5</b><b>9</b></a>`)
	q, err := CompileWithVars(`//b[. > $min]`, map[string]Var{"min": NumberVar(6)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Evaluate(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes()) != 1 || res.Nodes()[0].StringValue() != "9" {
		t.Errorf("got %v", res)
	}
	q2, err := CompileWithVars(`concat($s, string($b))`, map[string]Var{
		"s": StringVar("x="), "b": BoolVar(true)})
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := q2.Evaluate(doc)
	if res2.Text() != "x=true" {
		t.Errorf("got %q", res2.Text())
	}
}

func TestResultAccessors(t *testing.T) {
	doc, _ := ParseDocumentString(`<a><b>7</b></a>`)

	num, _ := MustCompile(`1 div 0`).Evaluate(doc)
	if !math.IsInf(num.Number(), 1) || num.Text() != "Infinity" {
		t.Errorf("1 div 0: %v %q", num.Number(), num.Text())
	}
	if num.IsNodeSet() || num.Nodes() != nil {
		t.Error("scalar result misreported as node set")
	}

	set, _ := MustCompile(`//b`).Evaluate(doc)
	if !set.IsNodeSet() || len(set.Nodes()) != 1 {
		t.Errorf("//b: %v", set)
	}
	if set.Number() != 7 || set.Text() != "7" || !set.Bool() {
		t.Errorf("conversions: %v %q %v", set.Number(), set.Text(), set.Bool())
	}
	if set.String() == "" {
		t.Error("String render empty")
	}
	if set.Stats().AxisCalls == 0 {
		t.Error("stats not populated")
	}
}

// TestResultLenAndFirstNodes: Len is the full cardinality and FirstNodes is
// the document-order prefix of Nodes, on node sets spanning several bitset
// words; scalars report 0 and nil.
func TestResultLenAndFirstNodes(t *testing.T) {
	doc, _ := ParseDocumentString("<a>" + strings.Repeat("<b/><c/>", 100) + "</a>")
	num, _ := MustCompile(`count(//b)`).Evaluate(doc)
	if num.Len() != 0 || num.FirstNodes(5) != nil {
		t.Errorf("scalar: Len %d, FirstNodes %v", num.Len(), num.FirstNodes(5))
	}
	for _, src := range []string{`//b`, `//*`, `//e`, `/child::a`} {
		res, err := MustCompile(src).Evaluate(doc)
		if err != nil {
			t.Fatal(err)
		}
		all := res.Nodes()
		if res.Len() != len(all) {
			t.Errorf("%s: Len %d, len(Nodes) %d", src, res.Len(), len(all))
		}
		for _, limit := range []int{-1, 0, 1, 63, 64, 65, 150, len(all), len(all) + 10} {
			first := res.FirstNodes(limit)
			if want := min(max(limit, 0), len(all)); len(first) != want {
				t.Fatalf("%s: FirstNodes(%d) has %d nodes, want %d", src, limit, len(first), want)
			}
			for i, n := range first {
				if n.Pre() != all[i].Pre() {
					t.Fatalf("%s: FirstNodes(%d)[%d] = pre %d, want %d", src, limit, i, n.Pre(), all[i].Pre())
				}
			}
		}
	}
}

func TestNodeNavigation(t *testing.T) {
	doc, _ := ParseDocumentString(`<a id="r"><b id="x">hi</b></a>`)
	root := doc.Root()
	if !root.IsRoot() || root.Parent() != nil || root.Label() != "" {
		t.Error("root accessors wrong")
	}
	a := root.Children()[0]
	b := a.Children()[0]
	if b.Label() != "b" || b.StringValue() != "hi" || b.Parent().Label() != "a" {
		t.Error("child accessors wrong")
	}
	if id, ok := b.Attr("id"); !ok || id != "x" {
		t.Error("Attr wrong")
	}
	if doc.ByID("x") == nil || doc.ByID("zz") != nil {
		t.Error("ByID wrong")
	}
	if b.String() != "b#x" || root.String() != "/" {
		t.Errorf("String renders: %q %q", b.String(), root.String())
	}
	if b.Pre() != 2 {
		t.Errorf("Pre = %d", b.Pre())
	}
	if !strings.Contains(doc.XML(), "<b id=\"x\">hi</b>") {
		t.Errorf("XML round trip: %s", doc.XML())
	}
}

func TestContextNodeOption(t *testing.T) {
	doc, _ := ParseDocumentString(`<a id="1"><b id="2"><c id="3"/></b></a>`)
	q := MustCompile(`child::c`)
	res, err := q.EvaluateWith(doc, Options{ContextNode: doc.ByID("2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes()) != 1 {
		t.Errorf("child::c from b: %v", res)
	}
}

func TestCoreXPathEngineErrors(t *testing.T) {
	doc, _ := ParseDocumentString(`<a><b/></a>`)
	q := MustCompile(`count(//b)`) // not Core XPath
	if _, err := q.EvaluateWith(doc, Options{Engine: EngineCoreXPath}); err == nil {
		t.Error("corexpath engine must reject non-core queries")
	}
}

func TestFragmentMapping(t *testing.T) {
	cases := map[string]Fragment{
		`//a[b]`:          CoreXPath,
		`//a[b = 1]`:      ExtendedWadler,
		`//a[count(b)=1]`: FullXPath,
	}
	for src, want := range cases {
		if got := MustCompile(src).Fragment(); got != want {
			t.Errorf("%q → %v, want %v", src, got, want)
		}
	}
	for _, f := range []Fragment{CoreXPath, ExtendedWadler, FullXPath} {
		if f.String() == "" {
			t.Error("fragment name empty")
		}
	}
}

func TestQuerySizeAndInternal(t *testing.T) {
	q := MustCompile(`//a[b]/c`)
	if q.Size() != q.Internal().Size() || q.Size() == 0 {
		t.Error("Size plumbing broken")
	}
}

func TestExplain(t *testing.T) {
	q := MustCompile(`/child::a/descendant::*[boolean(following::d[c = 100]/following::d)]`)
	out := q.Explain()
	for _, want := range []string{"fragment:", "parse tree:", "relev:", "bottom-up:", "boolean("} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// A query with no bottom-up plan says so.
	out2 := MustCompile(`count(//a)`).Explain()
	if !strings.Contains(out2, "none") {
		t.Errorf("Explain for plain query:\n%s", out2)
	}
	// Core XPath queries advertise the linear bound.
	out3 := MustCompile(`//a[b]`).Explain()
	if !strings.Contains(out3, "Theorem 13") {
		t.Errorf("Explain for core query:\n%s", out3)
	}
}

func TestContextNodeFromOtherDocument(t *testing.T) {
	d1, _ := ParseDocumentString(`<a id="x"><b/></a>`)
	d2, _ := ParseDocumentString(`<a id="x"><b/></a>`)
	q := MustCompile(`//b`)
	if _, err := q.EvaluateWith(d1, Options{ContextNode: d2.ByID("x")}); err == nil {
		t.Error("cross-document context node must be rejected")
	}
}

// TestConcurrentEvaluation: documents and compiled queries are immutable;
// evaluations on all engines may run concurrently.
func TestConcurrentEvaluation(t *testing.T) {
	doc, _ := ParseDocumentString(figure2XML)
	q := MustCompile(section24Query)
	done := make(chan string, 32)
	for i := 0; i < 32; i++ {
		eng := Engines()[i%4] // opt, min, topdown, bottomup
		go func(e Engine) {
			res, err := q.EvaluateWith(doc, Options{Engine: e})
			if err != nil {
				done <- err.Error()
				return
			}
			done <- ids(res.Nodes())
		}(eng)
	}
	want := "x13 x14 x21 x22 x23 x24"
	for i := 0; i < 32; i++ {
		if got := <-done; got != want {
			t.Errorf("concurrent evaluation: %q", got)
		}
	}
}

func TestPublicSnapshotRoundTrip(t *testing.T) {
	doc, _ := ParseDocumentString(figure2XML)
	var buf strings.Builder
	if err := doc.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Queries behave identically on the restored document.
	q := MustCompile(section24Query)
	r1, _ := q.Evaluate(doc)
	r2, _ := q.Evaluate(back)
	if ids(r1.Nodes()) != ids(r2.Nodes()) {
		t.Errorf("snapshot round trip changed query results: %s vs %s",
			ids(r1.Nodes()), ids(r2.Nodes()))
	}
}
