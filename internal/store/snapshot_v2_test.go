package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// reload round-trips a store through the current snapshot format.
func reload(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// sameCorpus asserts that two stores hold the same documents.
func sameCorpus(t *testing.T, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len: %d want %d", got.Len(), want.Len())
	}
	for _, id := range want.IDs() {
		w, _ := want.Get(id)
		g, ok := got.Get(id)
		if !ok {
			t.Fatalf("document %q missing", id)
		}
		if g.XMLString() != w.XMLString() {
			t.Fatalf("document %q differs", id)
		}
	}
}

func TestSnapshotV2CarriesGeneration(t *testing.T) {
	s := corpus(t, 4)
	var buf bytes.Buffer
	if err := writeSnapshotEntries(&buf, 7, s.snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, gen, err := loadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 {
		t.Fatalf("generation %d want 7", gen)
	}
	sameCorpus(t, loaded, s)
}

func TestSnapshotLegacyV1StillLoads(t *testing.T) {
	s := corpus(t, 5)
	var buf bytes.Buffer
	if err := writeSnapshotV1(&buf, s.snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, gen, err := loadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 {
		t.Fatalf("legacy generation %d want 0", gen)
	}
	sameCorpus(t, loaded, s)
}

// v1FrameWithSlack builds a one-document XPC1 stream whose frame declares
// pad extra bytes beyond the document stream.
func v1FrameWithSlack(t *testing.T, pad int) []byte {
	t.Helper()
	var doc bytes.Buffer
	if err := xmltree.MustParseString(`<r><c>x</c></r>`).WriteSnapshot(&doc); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString(corpusMagicV1)
	putUvarint(&b, 1)
	putString(&b, "padded")
	putUvarint(&b, uint64(doc.Len()+pad))
	b.Write(doc.Bytes())
	b.Write(make([]byte, pad))
	return b.Bytes()
}

func TestSnapshotV1SlackToleratedAndCounted(t *testing.T) {
	before := mSnapSlackBytes.Value()
	s, err := LoadSnapshot(bytes.NewReader(v1FrameWithSlack(t, 3)))
	if err != nil {
		t.Fatalf("legacy slack must load: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len %d want 1", s.Len())
	}
	if got := mSnapSlackBytes.Value() - before; got != 3 {
		t.Fatalf("store.snapshot.slack_bytes grew by %d, want 3", got)
	}
}

// v2FrameWithSlack builds a one-document XPC2 stream whose document frame
// declares pad extra bytes, with a recomputed (valid!) frame CRC — so only
// the slack check can reject it.
func v2FrameWithSlack(t *testing.T, pad int) []byte {
	t.Helper()
	var doc bytes.Buffer
	if err := xmltree.MustParseString(`<r><c>x</c></r>`).WriteSnapshot(&doc); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	writeSection := func(payload []byte) {
		b.Write(payload)
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], crc32.Checksum(payload, crcTable))
		b.Write(tmp[:])
	}
	b.WriteString(corpusMagicV2)
	var sec bytes.Buffer
	putUvarint(&sec, 0) // generation
	putUvarint(&sec, 1) // count
	writeSection(sec.Bytes())
	sec.Reset()
	putString(&sec, "padded")
	putUvarint(&sec, uint64(doc.Len()+pad))
	sec.Write(doc.Bytes())
	sec.Write(make([]byte, pad))
	writeSection(sec.Bytes())
	sec.Reset()
	sec.WriteString(corpusFooterMagic)
	putUvarint(&sec, 1)
	putUvarint(&sec, 0)
	writeSection(sec.Bytes())
	return b.Bytes()
}

func TestSnapshotV2SlackRejected(t *testing.T) {
	_, err := LoadSnapshot(bytes.NewReader(v2FrameWithSlack(t, 2)))
	if err == nil || !strings.Contains(err.Error(), "slack") {
		t.Fatalf("want slack rejection, got %v", err)
	}
	// Control: the same construction with zero padding loads.
	if _, err := LoadSnapshot(bytes.NewReader(v2FrameWithSlack(t, 0))); err != nil {
		t.Fatalf("zero-slack control must load: %v", err)
	}
}

// TestSnapshotHostileLengthClaims: counts and lengths read from the stream
// are claims; absurd ones must fail fast instead of committing the reader
// to huge allocations or scans.
func TestSnapshotHostileLengthClaims(t *testing.T) {
	// V1: absurd document count.
	var b bytes.Buffer
	b.WriteString(corpusMagicV1)
	putUvarint(&b, maxCorpusDocs+1)
	if _, err := LoadSnapshot(bytes.NewReader(b.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "implausible document count") {
		t.Fatalf("V1 hostile count: got %v", err)
	}
	// V1: absurd per-document length claim (the regression this release
	// fixes: it used to flow unchecked into a LimitReader).
	b.Reset()
	b.WriteString(corpusMagicV1)
	putUvarint(&b, 1)
	putString(&b, "evil")
	putUvarint(&b, maxDocSnapLen+1)
	if _, err := LoadSnapshot(bytes.NewReader(b.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "implausible document length") {
		t.Fatalf("V1 hostile length: got %v", err)
	}
	// V2: absurd document count, CRC-valid so only the bound can reject.
	b.Reset()
	b.WriteString(corpusMagicV2)
	var sec bytes.Buffer
	putUvarint(&sec, 0)
	putUvarint(&sec, maxCorpusDocs+1)
	b.Write(sec.Bytes())
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], crc32.Checksum(sec.Bytes(), crcTable))
	b.Write(tmp[:])
	if _, err := LoadSnapshot(bytes.NewReader(b.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "implausible document count") {
		t.Fatalf("V2 hostile count: got %v", err)
	}
}

// TestSnapshotV2DetectsCorruption: any flipped bit in the stream must
// surface as an error — the CRCs leave no blind spots.
func TestSnapshotV2DetectsCorruption(t *testing.T) {
	s := corpus(t, 3)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for i := len(corpusMagicV2); i < len(valid); i++ {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x01
		if _, err := LoadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at offset %d loaded cleanly", i)
		}
	}
}

// TestSnapshotV2DetectsTruncation: the footer makes every truncation —
// even one cutting exactly at a frame boundary — detectable.
func TestSnapshotV2DetectsTruncation(t *testing.T) {
	s := corpus(t, 3)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut++ {
		if _, err := LoadSnapshot(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded cleanly", cut, len(valid))
		}
	}
	// Trailing garbage after a complete stream is equally rejected.
	if _, err := LoadSnapshot(bytes.NewReader(append(bytes.Clone(valid), 0))); err == nil {
		t.Fatal("trailing byte after footer loaded cleanly")
	}
}

func TestSaveSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	s := corpus(t, 6)
	if err := s.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameCorpus(t, loaded, s)

	// Overwriting an existing snapshot is equally atomic.
	if err := s.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	sameCorpus(t, loaded, s)
}

func TestStoreReplaceSwapsAtomically(t *testing.T) {
	s := New()
	if _, err := s.Replace("a", xmltree.MustParseString(`<old/>`)); err != nil {
		t.Fatal(err)
	}
	replaced, err := s.Replace("a", xmltree.MustParseString(`<new/>`))
	if err != nil {
		t.Fatal(err)
	}
	if !replaced {
		t.Fatal("second Replace must report displacement")
	}
	d, _ := s.Get("a")
	if got := d.XMLString(); !strings.Contains(got, "new") {
		t.Fatalf("got %q", got)
	}
	if _, err := s.Replace("", xmltree.MustParseString(`<x/>`)); err == nil {
		t.Fatal("empty ID must fail")
	}
	if _, err := s.Replace("b", nil); err == nil {
		t.Fatal("nil document must fail")
	}
}

// TestSnapshotCorpusFormatCompat: an XPC2 corpus written before the
// columnar document layout loads and is rewritten byte for byte.
func TestSnapshotCorpusFormatCompat(t *testing.T) {
	want, err := os.ReadFile("testdata/compat.xpc2")
	if err != nil {
		t.Fatal(err)
	}
	s, err := LoadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := s.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rewritten corpus differs:\n got %x\nwant %x", got.Bytes(), want)
	}
	small, ok := s.Get("small.xml")
	if !ok {
		t.Fatal("small.xml missing")
	}
	if got := small.Root().StringValue(); got != "onetwo three" {
		t.Errorf("strval(small.xml) = %q", got)
	}
	catalog, ok := s.Get("catalog.xml")
	if !ok {
		t.Fatal("catalog.xml missing")
	}
	if v, _ := catalog.ByID("c0").Attr("xml:lang"); v != "de" {
		t.Errorf("xml:lang = %q", v)
	}
}
