// Fragments: classify queries into the paper's efficiency classes
// (Core XPath ⊂ Extended Wadler ⊂ full XPath 1.0) and show what the
// classification costs in practice — which is exactly the point of
// Section 4: "it pinpoints those features of XPath 1.0 that are the most
// expensive, even though their practical value is questionable."
//
//	go run ./examples/fragments
package main

import (
	"fmt"
	"log"
	"time"

	xpath "repro"
	"repro/internal/workload"
)

func main() {
	queries := []string{
		// Core XPath (Definition 12): O(|D|·|Q|).
		`//section[product]/name`,
		`//b[.//d and not(child::c)]`,
		// Extended Wadler (§4): O(|D|²·|Q|²) time, O(|D|·|Q|²) space.
		`//product[price = 100]`,
		`//c[position() != last()]`,
		`//b[boolean(following::d)]`,
		// Full XPath 1.0 (Theorem 7 bounds): Restrictions 1/2 violated.
		`//section[count(product) > 5]`,
		`//b[c = following::d]`,
		`//product[string-length(string(sku)) > 3]`,
	}

	fmt.Println("fragment classification:")
	for _, src := range queries {
		q, err := xpath.Compile(src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-46s → %s\n", src, q.Fragment())
	}

	// Cost: the same document, one query per fragment, growing |D|.
	fmt.Println("\nwall time by fragment (OPTMINCONTEXT picks the best strategy per subexpression):")
	perFragment := map[string]string{
		"core-xpath":      `//b[.//d]/c`,
		"extended-wadler": `//c[position() != last()][following::d = 100]`,
		"full-xpath":      `//b[count(c) > 1]/d`,
	}
	for _, name := range []string{"core-xpath", "extended-wadler", "full-xpath"} {
		src := perFragment[name]
		q := xpath.MustCompile(src)
		fmt.Printf("  %-16s %s\n", name, src)
		for _, n := range []int{200, 400, 800} {
			doc := xpath.WrapTree(workload.Scaled(n))
			start := time.Now()
			res, err := q.EvaluateWith(doc, xpath.Options{Engine: xpath.EngineOptMinContext})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("    |D|=%-5d %8s  (%d result nodes, %d table cells)\n",
				n, time.Since(start).Round(time.Microsecond), res.Len(), res.Stats().TableCells)
		}
	}
}
