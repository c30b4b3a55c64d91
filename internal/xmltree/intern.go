package xmltree

import (
	"strings"
	"sync"
)

// Interner is a concurrency-safe, reference-counted string intern table. A
// document store holding many documents parsed from similar vocabularies
// wastes memory on duplicate label strings: encoding/xml allocates a fresh
// string per start tag, so a corpus of n documents with a shared schema
// carries n copies of every tag name. Interning maps every equal label onto
// one canonical backing string shared across all documents of the corpus.
//
// The reference counts exist for the mutable-corpus scenario: documents are
// retained into the table when they join a store (Document.InternLabels)
// and released when they leave it (Document.ReleaseLabels), so a label used
// by no live document is dropped from the table instead of pinning its
// canonical string forever under Replace/Remove churn. Dropping an entry
// never invalidates strings already handed out — Go strings are immutable —
// it only means a future Intern of the same text re-clones it.
type Interner struct {
	mu   sync.RWMutex
	m    map[string]string
	refs map[string]int
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string), refs: make(map[string]int)}
}

// Intern returns the canonical copy of s, installing one on first sight.
// The canonical string is cloned from s, so it never pins a larger parse
// buffer s might be a slice of. Interning alone does not retain the string:
// retention is per document, via InternLabels/ReleaseLabels.
func (in *Interner) Intern(s string) string {
	in.mu.RLock()
	c, ok := in.m[s]
	in.mu.RUnlock()
	if ok {
		return c
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if c, ok := in.m[s]; ok {
		return c
	}
	c = strings.Clone(s)
	in.m[c] = c
	return c
}

// retain increments the reference count of every label in the set.
func (in *Interner) retain(labels map[string]struct{}) {
	in.mu.Lock()
	for l := range labels {
		in.refs[l]++
	}
	in.mu.Unlock()
}

// release decrements the reference count of every label in the set,
// dropping table entries whose count reaches zero. Labels never retained
// (interned directly, or counted down already) are left alone: the table
// must keep working for callers that use Intern without the
// retain/release protocol.
func (in *Interner) release(labels map[string]struct{}) {
	in.mu.Lock()
	for l := range labels {
		c, ok := in.refs[l]
		if !ok {
			continue
		}
		if c <= 1 {
			delete(in.refs, l)
			delete(in.m, l)
		} else {
			in.refs[l] = c - 1
		}
	}
	in.mu.Unlock()
}

// Len returns the number of canonical strings held.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.m)
}

// Refs returns the reference count currently held for the label (0 when
// the label is not retained). Diagnostics and tests only.
func (in *Interner) Refs(label string) int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.refs[label]
}

// labelSet collects the document's distinct element labels and attribute
// names — exactly the strings InternLabels canonicalizes — so retain and
// release see the same multiset (one count per distinct string per
// document).
func (d *Document) labelSet() map[string]struct{} {
	set := make(map[string]struct{}, len(d.labels)+len(d.attrNames))
	for _, l := range d.labels {
		set[l] = struct{}{}
	}
	for _, a := range d.attrNames {
		set[a] = struct{}{}
	}
	return set
}

// InternLabels replaces every element label and attribute name of the
// document with its canonical interned copy, re-keys the label index
// accordingly so the old per-document strings become collectable, and
// retains one reference per distinct label on behalf of this document.
// Attribute and text values are left alone (they are usually unique).
//
// The replacement strings are equal to the originals, so the document's
// observable state is unchanged; but because the label and attribute-name
// tables are rewritten in place, InternLabels must not run concurrently
// with readers of the document. Call it once, before the document is
// shared — Store.Add does.
func (d *Document) InternLabels(in *Interner) {
	labelIDs := make(map[string]int32, len(d.labels))
	for i, l := range d.labels {
		d.labels[i] = in.Intern(l)
		labelIDs[d.labels[i]] = int32(i)
	}
	d.labelIDs = labelIDs
	for i, a := range d.attrNames {
		d.attrNames[i] = in.Intern(a)
	}
	in.retain(d.labelSet())
}

// ReleaseLabels drops the references InternLabels retained: call it when
// the document leaves the store that interned it (Store.Remove, or the
// displaced document of Store.Replace). Unlike InternLabels it only reads
// the document, so it is safe to run while old readers still evaluate the
// departing document — their strings stay valid; only the intern table's
// bookkeeping changes.
func (d *Document) ReleaseLabels(in *Interner) {
	in.release(d.labelSet())
}
