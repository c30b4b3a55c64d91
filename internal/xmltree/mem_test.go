package xmltree_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmltree"
)

// liveBytes returns the heap the value built by f keeps alive. Each side
// collects twice, so sync.Pool victim caches emptied by the second
// collection do not count against the value.
func liveBytes(f func() any) (int64, any) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := f()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), v
}

// TestDocumentBytesPerNode pins the columnar layout's footprint: at most
// 100 bytes per node on the generator shapes, and MemBytes accounts for the
// live heap a document holds to within 15%.
func TestDocumentBytesPerNode(t *testing.T) {
	cases := []struct {
		name  string
		build func() *xmltree.Document
	}{
		{"Scaled(2000)", func() *xmltree.Document { return workload.Scaled(2000) }},
		{"Random(2000,1)", func() *xmltree.Document { return workload.Random(2000, 1) }},
	}
	for _, c := range cases {
		live, v := liveBytes(func() any { return c.build() })
		d := v.(*xmltree.Document)
		mem := d.MemBytes()
		perNode := float64(mem) / float64(d.NumNodes())
		t.Logf("%s: %d nodes, MemBytes %d (%.1f B/node), live heap %d", c.name, d.NumNodes(), mem, perNode, live)
		if perNode > 100 {
			t.Errorf("%s: MemBytes/NumNodes = %.1f, want <= 100", c.name, perNode)
		}
		if diff := float64(live-mem) / float64(mem); diff > 0.15 || diff < -0.15 {
			t.Errorf("%s: live heap %d differs from MemBytes %d by %.0f%%, want within 15%%", c.name, live, mem, 100*diff)
		}
		runtime.KeepAlive(d)
	}
}

// TestLoadSnapshotAllocsIndependentOfSize: the snapshot decoder sizes every
// column from a counting pass, so a load makes no per-node allocations.
func TestLoadSnapshotAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		var buf bytes.Buffer
		if err := workload.Scaled(n).WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snap := buf.Bytes()
		return testing.AllocsPerRun(20, func() {
			if _, err := xmltree.LoadSnapshot(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	t.Logf("LoadSnapshot allocs: %v at 1000 nodes, %v at 8000 nodes", small, large)
	if small != large {
		t.Errorf("LoadSnapshot makes %v allocations at 1000 nodes but %v at 8000", small, large)
	}
}

// deepXML nests depth elements, each carrying textPerLevel bytes of text
// before its child.
func deepXML(depth, textPerLevel int) string {
	var b strings.Builder
	text := strings.Repeat("x", textPerLevel)
	for i := 0; i < depth; i++ {
		b.WriteString("<e>")
		b.WriteString(text)
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</e>")
	}
	return b.String()
}

// TestDeepNestingMemoryLinear: string values are slices of one text
// column, so a deep document holds memory linear in its input — not one
// copy of the nested text per ancestor. Two depths catch a superlinear
// ratio that one depth might hide under the constant.
func TestDeepNestingMemoryLinear(t *testing.T) {
	const textPerLevel = 100
	var ratios []float64
	for _, depth := range []int{1000, 2000} {
		in := deepXML(depth, textPerLevel)
		live, v := liveBytes(func() any {
			d, err := xmltree.ParseString(in)
			if err != nil {
				t.Fatal(err)
			}
			return d
		})
		d := v.(*xmltree.Document)
		if got := len(d.Node(1).StringValue()); got != depth*textPerLevel {
			t.Fatalf("depth %d: strval of the outermost element has %d bytes, want %d", depth, got, depth*textPerLevel)
		}
		ratio := float64(live) / float64(len(in))
		t.Logf("depth %d: %d input bytes, %d live heap bytes (%.2fx)", depth, len(in), live, ratio)
		if ratio > 4 {
			t.Errorf("depth %d: live heap is %.1fx the input, want <= 4x", depth, ratio)
		}
		ratios = append(ratios, ratio)
		runtime.KeepAlive(d)
		runtime.KeepAlive(in) // live on both sides of the measurement
	}
	if ratios[1] > 1.25*ratios[0] {
		t.Errorf("live heap per input byte grows with depth: %.2fx at 1000, %.2fx at 2000", ratios[0], ratios[1])
	}
}

// BenchmarkWriteXML serializes a 1000-node document.
func BenchmarkWriteXML(b *testing.B) {
	d := workload.Scaled(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.XMLString()
	}
}
