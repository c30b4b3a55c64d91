// Command xpath evaluates an XPath 1.0 expression against an XML document
// with a selectable evaluation engine:
//
//	xpath -engine optmincontext -file doc.xml '//b[c = 100]'
//	cat doc.xml | xpath '/descendant::d'
//
// The -stats flag prints the engine's instrumentation counters (table
// cells, single-context evaluations, axis calls) after the result,
// -fragment prints the query's fragment classification (Core XPath /
// Extended Wadler / full XPath 1.0), and -explain prints both the
// OPTMINCONTEXT evaluation plan and the EngineCompiled instruction listing.
//
// Batch mode evaluates one query across a whole corpus on a worker pool:
//
//	xpath -store corpus-dir -workers 8 '//b[d = 100]/child::c'
//	xpath -store corpus.xpc -savestore corpus2.xpc 'count(//c)'
//
// -store names either a directory (every *.xml file becomes one document,
// keyed by file name) or a corpus snapshot file written by -savestore.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	xpath "repro"
)

func main() {
	var (
		engineName = flag.String("engine", "auto", "evaluation engine: auto (compiled)|optmincontext|mincontext|topdown|bottomup|corexpath|naive|compiled")
		file       = flag.String("file", "", "XML document (default: stdin)")
		contextID  = flag.String("context", "", "id attribute of the context node (default: document root)")
		stats      = flag.Bool("stats", false, "print evaluation statistics")
		fragment   = flag.Bool("fragment", false, "print the query's fragment classification")
		normalized = flag.Bool("normalized", false, "print the normalized (unabbreviated) query")
		explain    = flag.Bool("explain", false, "print the OPTMINCONTEXT evaluation plan and the compiled instruction listing")
		analyze    = flag.Bool("analyze", false, "EXPLAIN ANALYZE: run the query traced and print the instruction listing annotated with observed calls, cardinalities and timings (batch mode: print the aggregated evaluation trace)")
		metricsOut = flag.Bool("metrics", false, "print the process metrics registry after the run")
		storePath  = flag.String("store", "", "corpus: directory of *.xml files, or a corpus snapshot file (batch mode)")
		workers    = flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		saveStore  = flag.String("savestore", "", "write the loaded corpus as a snapshot to this file")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xpath [flags] <query>\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *storePath != "" {
		if *file != "" || *contextID != "" {
			err = fmt.Errorf("-store is incompatible with -file and -context")
		} else if *explain || *fragment || *normalized {
			err = fmt.Errorf("-store is incompatible with the single-document flags -explain, -fragment and -normalized")
		} else {
			err = runBatch(flag.Arg(0), *engineName, *storePath, *saveStore, *workers, *stats, *analyze)
		}
	} else if *saveStore != "" {
		err = fmt.Errorf("-savestore requires -store")
	} else {
		err = run(flag.Arg(0), *engineName, *file, *contextID, *stats, *fragment, *normalized, *explain, *analyze)
	}
	if *metricsOut {
		fmt.Println("metrics:")
		if werr := xpath.WriteMetricsText(os.Stdout); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpath:", err)
		os.Exit(1)
	}
}

// loadStore builds the corpus: from a snapshot file, or from every *.xml
// file of a directory (keyed by file name).
func loadStore(path string) (*xpath.Store, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return xpath.LoadStore(f)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	st := xpath.NewStore()
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".xml") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Open(filepath.Join(path, name))
		if err != nil {
			return nil, err
		}
		doc, err := xpath.ParseDocument(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := st.Add(name, doc); err != nil {
			return nil, err
		}
	}
	if st.Len() == 0 {
		return nil, fmt.Errorf("%s: no *.xml files", path)
	}
	return st, nil
}

func runBatch(querySrc, engineName, storePath, saveStore string, workers int, stats, analyze bool) error {
	eng, ok := xpath.EngineByName(engineName)
	if !ok {
		return fmt.Errorf("unknown engine %q", engineName)
	}
	st, err := loadStore(storePath)
	if err != nil {
		return err
	}
	if saveStore != "" {
		f, err := os.Create(saveStore)
		if err != nil {
			return err
		}
		if err := st.WriteSnapshot(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved %d document(s) to %s\n", st.Len(), saveStore)
	}
	var rec *xpath.TraceRecorder
	opts := xpath.BatchOptions{Engine: eng, Workers: workers}
	if analyze {
		rec = xpath.NewTraceRecorder()
		opts.Tracer = rec
	}
	batch, err := st.Query(querySrc, opts)
	if err != nil {
		return err
	}
	for _, dr := range batch.Docs {
		if dr.Err != nil {
			fmt.Printf("%-20s error: %v\n", dr.ID, dr.Err)
			continue
		}
		if dr.Result.IsNodeSet() {
			fmt.Printf("%-20s %d node(s)\n", dr.ID, dr.Result.Len())
		} else {
			fmt.Printf("%-20s %s\n", dr.ID, dr.Result.Text())
		}
	}
	fmt.Printf("%d document(s), %d error(s)\n", len(batch.Docs), batch.Errs())
	if rec != nil {
		fmt.Print(xpath.RenderTrace(rec.Rows()))
	}
	if stats {
		s := batch.Stats()
		fmt.Printf("stats: cells=%d contexts=%d axis-calls=%d\n",
			s.TableCells, s.ContextsEvaluated, s.AxisCalls)
	}
	if n := batch.Errs(); n > 0 {
		return fmt.Errorf("%d of %d document(s) failed", n, len(batch.Docs))
	}
	return nil
}

func run(querySrc, engineName, file, contextID string, stats, fragment, normalized, explain, analyze bool) error {
	eng, ok := xpath.EngineByName(engineName)
	if !ok {
		return fmt.Errorf("unknown engine %q", engineName)
	}

	var in io.Reader = os.Stdin
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	doc, err := xpath.ParseDocument(in)
	if err != nil {
		return err
	}

	q, err := xpath.Compile(querySrc)
	if err != nil {
		return err
	}
	if normalized {
		fmt.Println("normalized:", q.String())
	}
	if fragment {
		fmt.Println("fragment:", q.Fragment())
	}
	if explain {
		fmt.Print(q.Explain())
		fmt.Print(q.ExplainPlan())
	}
	if analyze {
		out, err := q.ExplainAnalyze(doc)
		if err != nil {
			return err
		}
		fmt.Print(out)
	}

	opts := xpath.Options{Engine: eng}
	if contextID != "" {
		opts.ContextNode = doc.ByID(contextID)
		if opts.ContextNode == nil {
			return fmt.Errorf("no node with id %q", contextID)
		}
	}
	res, err := q.EvaluateWith(doc, opts)
	if err != nil {
		return err
	}

	if res.IsNodeSet() {
		nodes := res.Nodes()
		fmt.Printf("%d node(s)\n", len(nodes))
		for _, n := range nodes {
			val := strings.TrimSpace(n.StringValue())
			if len(val) > 60 {
				val = val[:57] + "..."
			}
			fmt.Printf("  %-12s %s\n", n, val)
		}
	} else {
		fmt.Println(res.Text())
	}
	if stats {
		s := res.Stats()
		fmt.Printf("stats: cells=%d contexts=%d axis-calls=%d\n",
			s.TableCells, s.ContextsEvaluated, s.AxisCalls)
	}
	return nil
}
