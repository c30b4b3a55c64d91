package xmltree

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestSnapshotRoundTrip(t *testing.T) {
	d := mustParse(t, sample)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != d.Size() {
		t.Fatalf("size %d, want %d", back.Size(), d.Size())
	}
	for i, orig := range d.AllNodes().Nodes() {
		got := back.Node(i)
		if got.Label() != orig.Label() || got.StringValue() != orig.StringValue() ||
			got.StartEvent() != orig.StartEvent() || got.EndEvent() != orig.EndEvent() {
			t.Errorf("node %d differs after round trip", i)
		}
		for _, a := range orig.Attrs() {
			if v, ok := got.Attr(a.Name); !ok || v != a.Value {
				t.Errorf("node %d attr %s differs", i, a.Name)
			}
		}
	}
	// Derived indexes rebuilt.
	if back.ByID("14") == nil || back.LabelSet("c").Len() != 3 {
		t.Error("indexes not rebuilt")
	}
	if back.XMLString() != d.XMLString() {
		t.Error("XML serialization differs after snapshot round trip")
	}
}

func TestSnapshotErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("XPT1"),                   // truncated after magic
		[]byte("XPT1\x01\x01a\x01\x00"),  // start with bad label index tail
		append([]byte("XPT1\x00"), 0x05), // unknown event
	}
	for i, b := range bad {
		if _, err := LoadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: expected an error", i)
		}
	}
}

// TestQuickSnapshotRoundTrip: random documents survive the snapshot codec
// byte-for-byte in their XML serialization.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		d := buildRandomDoc(seed, 40)
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf); err != nil {
			return false
		}
		back, err := LoadSnapshot(&buf)
		if err != nil {
			return false
		}
		return back.XMLString() == d.XMLString()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotWithSpecialContent(t *testing.T) {
	d := mustParse(t, `<a x="&lt;&amp;"><b>text &amp; more</b><c/>tail</a>`)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Root().StringValue() != d.Root().StringValue() {
		t.Errorf("string value %q vs %q", back.Root().StringValue(), d.Root().StringValue())
	}
	el := back.Root().Children()[0]
	if v, _ := el.Attr("x"); v != "<&" {
		t.Errorf("attr = %q", v)
	}
}

func TestSnapshotCompactness(t *testing.T) {
	// The snapshot should not be drastically larger than the XML.
	d := mustParse(t, strings.Repeat(``, 0)+sample)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 2*len(d.XMLString()) {
		t.Errorf("snapshot %d bytes for %d bytes of XML", buf.Len(), len(d.XMLString()))
	}
}
