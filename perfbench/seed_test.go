package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// fingerprint hashes what one seed makes of a workload: every byte of the
// corpus files the server is started from, the PUT bodies, and the
// requests of the first operations of the stream.
func fingerprint(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	c := w.build(seed)
	path, err := c.write(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		fmt.Fprintf(h, "%s %d\n", d.Name(), len(b))
		h.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	c.serialize()
	for _, x := range c.poolXML {
		h.Write(x)
	}
	// The requests do not depend on the expected answers.
	c.want = make([][]answer, len(c.ids)+len(c.pool))
	for i := range c.want {
		c.want[i] = make([]answer, len(c.sources()))
	}
	g := newOpGen(w, c, seed, 1e9)
	for i := 0; i < 2000; i++ {
		o := g.next()
		fmt.Fprintf(h, "%s %s %q %d\n", o.kind, c.ids[o.doc], o.query, o.pool)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := fingerprint(t, w, 7), fingerprint(t, w, 7), fingerprint(t, w, 8)
			if a != b {
				t.Errorf("seed 7 gave two different corpora or streams")
			}
			if a == other {
				t.Errorf("seeds 7 and 8 gave the same corpus and stream")
			}
		})
	}
}

func TestXMLOfMatchesDocumentXML(t *testing.T) {
	for _, w := range workloads {
		c := w.build(1)
		for i := 0; i < 3; i++ {
			if got, want := xmlOf(c.docs[i]), c.docs[i].XML(); !bytes.Equal(got, []byte(want)) {
				t.Errorf("%s document %d: xmlOf differs from Document.XML", w.name, i)
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which the
// benchmark's callers read, in step with the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			s := want[i]
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || bound != s.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, s)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
