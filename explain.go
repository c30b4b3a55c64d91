package xpath

import (
	"fmt"
	"strings"

	"repro/internal/syntax"
	"repro/internal/trace"
)

// Explain describes how OPTMINCONTEXT will evaluate the query: the fragment
// classification, the per-node relevant contexts of Section 3.1, and the
// bottom-up evaluation plan of Algorithm 8. The output is meant for humans
// (CLI -explain flag, examples); its exact format is not part of the API
// contract.
func (q *Query) Explain() string {
	var b strings.Builder
	iq := q.q
	fmt.Fprintf(&b, "query:      %s\n", iq.Source)
	fmt.Fprintf(&b, "normalized: %s\n", iq.Root)
	fmt.Fprintf(&b, "fragment:   %s", q.Fragment())
	switch q.Fragment() {
	case CoreXPath:
		b.WriteString("  (evaluable in O(|D|·|Q|), Theorem 13)")
	case ExtendedWadler:
		b.WriteString("  (O(|D|²·|Q|²) time, O(|D|·|Q|²) space, Theorem 10)")
	default:
		b.WriteString("  (O(|D|⁴·|Q|²) time, O(|D|²·|Q|²) space, Theorem 7)")
	}
	fmt.Fprintf(&b, "\nparse tree: %d nodes\n", iq.Size())

	// Relevant-context summary: how many nodes get tabled by context node
	// only, how many need the position/size loop, how many are constant.
	var constant, cnOnly, positional int
	for id := range iq.Nodes {
		r := iq.Relev[id]
		switch {
		case r == 0:
			constant++
		case r.NeedsPosition():
			positional++
		default:
			cnOnly++
		}
	}
	fmt.Fprintf(&b, "relev:      %d constant, %d context-node-only (tabled), %d position-dependent (loop-evaluated)\n",
		constant, cnOnly, positional)

	if len(iq.BottomUp) == 0 {
		b.WriteString("bottom-up:  none (MINCONTEXT handles the whole tree)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "bottom-up:  %d subexpression(s), evaluated innermost-first via inverse axes (Algorithm 8):\n", len(iq.BottomUp))
	for _, id := range iq.BottomUp {
		pi, op, scalar := iq.BottomUpPath(id)
		if scalar == nil {
			fmt.Fprintf(&b, "  N%-3d boolean(%s)\n", id, pi)
		} else {
			fmt.Fprintf(&b, "  N%-3d %s %s %s\n", id, pi, opName(op), scalar)
		}
	}
	return b.String()
}

func opName(op syntax.BinOp) string { return op.String() }

// ExplainPlan returns the EngineCompiled instruction listing for the query:
// the disassembly of the flat register-VM program internal/plan lowers the
// normalized tree into. Like Explain, the output is meant for humans (the
// CLI's -explain flag) and its exact format is not part of the API contract.
func (q *Query) ExplainPlan() string {
	p, err := compiledEngine.Plan(q.q)
	if err != nil {
		return fmt.Sprintf("plan: compile error: %v\n", err)
	}
	return p.Disasm()
}

// ExplainAnalyze is EXPLAIN with actual numbers: it evaluates the query on
// doc with EngineCompiled under a trace recorder and returns the plan
// disassembly annotated per instruction with the observed behavior —
//
//	3  step       r1 = step(r0, child, b)[sat r2]   ; calls=1 in=1 out=2 ns=1.2µs scratch=64B
//
// calls is how many times the instruction executed (predicate blocks run
// once per candidate node), in/out are summed node-set cardinalities over
// those executions, ns is the summed wall time, and scratch is the axis
// scratch arena's high-water mark. A summary header reports the total
// evaluation time and result cardinality. Like Explain, the output is for
// humans; its exact format is not part of the API contract.
func (q *Query) ExplainAnalyze(doc *Document) (string, error) {
	p, err := compiledEngine.Plan(q.q)
	if err != nil {
		return "", fmt.Errorf("xpath: explain analyze: %w", err)
	}
	rec := NewTraceRecorder()
	res, err := q.EvaluateWith(doc, Options{Engine: EngineCompiled, Tracer: rec})
	if err != nil {
		return "", err
	}

	rows := rec.Rows()
	byInstr := make(map[[2]int]TraceRow)
	for _, r := range rows {
		if r.Kind == trace.KindOpcode {
			byInstr[[2]int{r.Block, r.PC}] = r
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "query:      %s\n", q.q.Source)
	fmt.Fprintf(&b, "engine:     %s\n", EngineCompiled)
	fmt.Fprintf(&b, "total:      %s", fmtNs(rec.TotalNs(trace.KindEval)))
	if res.IsNodeSet() {
		fmt.Fprintf(&b, "  (%d node(s))", res.Len())
	}
	b.WriteByte('\n')
	b.WriteString(p.DisasmAnnotated(func(block, pc int) string {
		r, ok := byInstr[[2]int{block, pc}]
		if !ok {
			return "   ; never executed"
		}
		a := fmt.Sprintf("   ; calls=%d in=%s out=%s ns=%s",
			r.Calls, fmtCard(r.In), fmtCard(r.Out), fmtNs(r.Ns))
		if r.HighWater > 0 {
			a += fmt.Sprintf(" scratch=%dB", r.HighWater)
		}
		return a
	}))
	return b.String(), nil
}

// fmtCard renders a summed cardinality; "-" when no node-set operand was
// observed (scalar instructions).
func fmtCard(n int64) string {
	if n < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

// fmtNs renders nanoseconds with a human unit.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
