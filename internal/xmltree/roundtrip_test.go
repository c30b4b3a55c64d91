package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// sameDocument reports the first difference between two documents: their
// topology columns, and every node's label, attributes and string value.
func sameDocument(a, b *Document) error {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("%d nodes vs %d", a.NumNodes(), b.NumNodes())
	}
	if !reflect.DeepEqual(a.Topology(), b.Topology()) {
		return fmt.Errorf("topology columns differ:\n%+v\n%+v", *a.Topology(), *b.Topology())
	}
	for p := range a.NumNodes() {
		x, y := a.Node(p), b.Node(p)
		if x.Label() != y.Label() {
			return fmt.Errorf("node %d: label %q vs %q", p, x.Label(), y.Label())
		}
		if !reflect.DeepEqual(x.Attrs(), y.Attrs()) {
			return fmt.Errorf("node %d: attributes %q vs %q", p, x.Attrs(), y.Attrs())
		}
		if x.StringValue() != y.StringValue() {
			return fmt.Errorf("node %d: string value %q vs %q", p, x.StringValue(), y.StringValue())
		}
	}
	return nil
}

// xmlRoundTrip checks that parse(XML(d)) and load(snapshot(d)) both
// reproduce d, under the limits d itself was parsed with.
func xmlRoundTrip(d *Document, l Limits) error {
	again, err := ParseWithLimits(bytes.NewReader([]byte(d.XMLString())), l)
	if err != nil {
		return fmt.Errorf("re-parse of %q: %w", d.XMLString(), err)
	}
	if err := sameDocument(d, again); err != nil {
		return fmt.Errorf("XML round trip of %q: %w", d.XMLString(), err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		return err
	}
	back, err := LoadSnapshotWithLimits(&buf, l)
	if err != nil {
		return fmt.Errorf("snapshot load: %w", err)
	}
	if err := sameDocument(d, back); err != nil {
		return fmt.Errorf("snapshot round trip: %w", err)
	}
	return nil
}

// TestXMLRoundTripKeepsValues: serializing and re-parsing keeps every
// string value and attribute, including characters a parser would
// otherwise normalize away.
func TestXMLRoundTripKeepsValues(t *testing.T) {
	for _, src := range []string{
		`<a>x&#13;y</a>`,
		`<a>x&#13;&#10;y&#13;</a>`,
		`<a v="x&#13;y"/>`,
		`<a v="tab&#9;nl&#10;cr&#13;end"/>`,
		`<a v="&lt;&amp;&gt;&quot;'">&lt;&amp;&gt;"'</a>`,
		`<a>]]&gt; and <![CDATA[<raw> & ]]]]></a>`,
		`<a>Grüße <b>東京</b> ✓</a>`,
		`<a>x<!-- comment splits -->y<?pi data?>z</a>`,
		`<a><b/><c></c>mixed<d>in</d>tail</a>`,
		`<a xml:lang="de" id="1" id="2"><b id="1">dup</b></a>`,
		"<a>\r\nline\r\n</a>",
	} {
		d, err := ParseString(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if err := xmlRoundTrip(d, DefaultLimits()); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	// The case that motivated escaping carriage returns.
	d := MustParseString(`<a>x&#13;y</a>`)
	if got := MustParseString(d.XMLString()).Root().StringValue(); got != "x\ry" {
		t.Errorf("strval after round trip = %q, want %q", got, "x\ry")
	}
}

// TestSnapshotFormatCompat: a snapshot written before the columnar layout
// (mixed content, attributes, multi-byte text, empty elements) loads and
// is rewritten byte for byte.
func TestSnapshotFormatCompat(t *testing.T) {
	want, err := os.ReadFile("testdata/compat.xpt1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := LoadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := d.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rewritten snapshot differs:\n got %x\nwant %x", got.Bytes(), want)
	}
	item := d.ByID("i1")
	if item == nil {
		t.Fatal("ByID(i1) = nil")
	}
	if v, _ := item.Attr("note"); v != `<x> "q"` {
		t.Errorf("note = %q", v)
	}
	if got := item.StringValue(); got != "mixed bold tail end" {
		t.Errorf("strval(i1) = %q", got)
	}
	if got := d.ByID("i2").StringValue(); got != "日本語x < y & zafter" {
		t.Errorf("strval(i2) = %q", got)
	}
	if got := d.ByID("e1").StringValue(); got != "" {
		t.Errorf("strval(e1) = %q", got)
	}
}

// FuzzParseDocument: any input either fails with a classified error or
// yields a document that survives the snapshot codec and XML
// serialization unchanged, all within small ingest limits.
func FuzzParseDocument(f *testing.F) {
	for _, s := range []string{
		sample,
		`<a>x<b>y</b>z</a>`,
		`<a>x&#13;y</a>`,
		`<a v="1&#9;2" xml:lang="en"><b/>t&amp;<c>Grüße</c></a>`,
		`<a><![CDATA[c]]>d<!--e-->f</a>`,
		`<?xml version="1.0"?><!DOCTYPE a><a/>`,
		`<a><b></a>`,
		`<a/><b/>`,
		`<p:a xmlns:p="u" p:x="1"><q:b/></p:a>`,
	} {
		f.Add([]byte(s))
	}
	l := Limits{MaxDepth: 32, MaxNodes: 256}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseWithLimits(bytes.NewReader(data), l)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrDepthLimit) && !errors.Is(err, ErrNodeLimit) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if err := xmlRoundTrip(d, l); err != nil {
			t.Fatal(err)
		}
	})
}
