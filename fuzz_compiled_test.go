package xpath

import (
	"math/rand"
	"testing"

	"repro/internal/fuzzgen"
)

// FuzzCompiledAgreement holds the production engine to the paper's: the
// fuzz input decodes (internal/fuzzgen) into a (query, document) pair, and
// the compiled VM's result must equal OPTMINCONTEXT's, and also the Core
// XPath engine's when the query is in that fragment. Unlike the seeded
// differential suites, coverage guidance steers the generator's decisions
// toward VM paths they have not reached.
//
//	go test -fuzz=FuzzCompiledAgreement -fuzztime=10s -run=NONE .
func FuzzCompiledAgreement(f *testing.F) {
	rng := rand.New(rand.NewSource(fuzzSeed))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 16+rng.Intn(240))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, tree := fuzzgen.PairFromBytes(data, fuzzgen.Config{}, 48)
		doc := WrapTree(tree)
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("generated query %q does not compile: %v", src, err)
		}
		compiled, cerr := q.EvaluateWith(doc, Options{Engine: EngineCompiled})
		oracles := []Engine{EngineOptMinContext}
		if q.Fragment() == CoreXPath {
			oracles = append(oracles, EngineCoreXPath)
		}
		for _, eng := range oracles {
			want, err := q.EvaluateWith(doc, Options{Engine: eng})
			if (err != nil) != (cerr != nil) {
				t.Fatalf("%q on %s:\n  compiled error: %v\n  %v error: %v", src, doc.XML(), cerr, eng, err)
			}
			if err == nil && !sameResult(want, compiled) {
				t.Fatalf("%q on %s:\n  compiled: %s\n  %v: %s", src, doc.XML(), compiled, eng, want)
			}
		}
	})
}
