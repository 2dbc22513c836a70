// Package search implements B-Fabric's full-text search over the
// attributes and readable contents of all main objects: quick and
// advanced (fielded) queries, per-user search history, saved queries that
// re-execute against live data, and CSV export of result sets.
//
// The inverted index is the store's. New registers a text index on every
// searchable table (store.CreateTextIndex), and from then on every commit,
// WAL replay, replicated frame and snapshot load keeps it, so a query sees
// exactly the committed state of the snapshot it reads and a replica
// answers like its primary. This package keeps no index state: it parses
// queries, intersects or unions postings under one pinned transaction, and
// ranks the hits by term frequency recounted from the hit records.
package search

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/entity"
	"repro/internal/fulltext"
	"repro/internal/store"
)

// Hit is one search result.
type Hit struct {
	// Kind and ID identify the matching object.
	Kind string
	ID   int64
	// Score is the TF-based relevance score (higher is better).
	Score float64
}

// Service is the search engine.
type Service struct {
	rg *entity.Registry
	// kinds are the searchable tables, sorted.
	kinds []string

	mu sync.Mutex
	// history maps login -> most recent queries, newest last.
	history map[string][]string
}

// HistoryLimit caps the per-user search history length.
const HistoryLimit = 20

// savedTable persists saved queries.
const savedTable = "saved_query"

// SavedQuery is a stored, re-executable query.
type SavedQuery struct {
	ID    int64
	Name  string
	Owner string
	Query string
}

// ErrEmptyQuery is returned for queries with no usable terms.
var ErrEmptyQuery = errors.New("empty query")

// New creates the search service and registers a text index on the
// table of every registered kind and on the annotation table. Existing
// records are indexed by the registration; over a restored store whose
// snapshot already carried the indexes it is a no-op.
func New(rg *entity.Registry) *Service {
	s := &Service{rg: rg, history: make(map[string][]string)}
	st := rg.Store()
	st.EnsureTable(savedTable)
	if !st.HasTable(savedTable + "_marker") {
		_ = st.CreateIndex(savedTable, "owner", false)
		st.EnsureTable(savedTable + "_marker")
	}
	kinds := append(rg.Kinds(), "annotation")
	slices.Sort(kinds)
	for _, kind := range slices.Compact(kinds) {
		if !st.HasTable(kind) {
			continue
		}
		// ErrExists means the index came back with the snapshot.
		_ = st.CreateTextIndex(kind)
		s.kinds = append(s.kinds, kind)
	}
	return s
}

// Query is a parsed search query.
type Query struct {
	// Terms are bare terms (ANDed).
	Terms []string
	// Prefixes are bare prefix terms ("circa*"), each matching any
	// indexed term with that prefix.
	Prefixes []string
	// FieldTerms are field-scoped terms "field:term" (ANDed).
	FieldTerms []struct{ Field, Term string }
	// Kinds restricts results to these kinds, if non-empty.
	Kinds []string
	// Or switches term combination from AND to OR.
	Or bool
}

// ParseQuery parses the portal's query syntax:
//
//	light treatment            — documents containing both terms
//	species:arabidopsis        — fielded term
//	kind:sample light          — restrict to sample objects
//	light OR dark              — OR combination
//	arabid*                    — prefix match
func ParseQuery(q string) Query {
	var out Query
	for _, raw := range strings.Fields(q) {
		if raw == "OR" {
			out.Or = true
			continue
		}
		lower := strings.ToLower(raw)
		if strings.HasPrefix(lower, "kind:") {
			out.Kinds = append(out.Kinds, strings.TrimPrefix(lower, "kind:"))
			continue
		}
		if i := strings.IndexByte(raw, ':'); i > 0 {
			field := strings.ToLower(raw[:i])
			for _, tok := range fulltext.Tokenize(raw[i+1:]) {
				out.FieldTerms = append(out.FieldTerms, struct{ Field, Term string }{field, tok})
			}
			continue
		}
		if strings.HasSuffix(raw, "*") {
			for _, tok := range fulltext.Tokenize(strings.TrimSuffix(raw, "*")) {
				out.Prefixes = append(out.Prefixes, tok)
			}
			continue
		}
		out.Terms = append(out.Terms, fulltext.Tokenize(raw)...)
	}
	return out
}

// empty reports whether the query has no term to match.
func (q *Query) empty() bool {
	return len(q.Terms) == 0 && len(q.FieldTerms) == 0 && len(q.Prefixes) == 0
}

// Search runs a query string against the latest committed state and
// returns ranked hits. The login, if non-empty, gets the query appended to
// its search history.
func (s *Service) Search(login, query string) ([]Hit, error) {
	var hits []Hit
	err := s.rg.Store().View(func(tx *store.Tx) error {
		var err error
		hits, err = s.SearchTx(tx, login, query)
		return err
	})
	return hits, err
}

// SearchTx is Search against the transaction's snapshot: the hits are
// exactly the committed records of that snapshot that satisfy the query,
// ordered by descending score, then kind, then id. Pending writes of the
// transaction are not searched.
func (s *Service) SearchTx(tx *store.Tx, login, query string) ([]Hit, error) {
	q := ParseQuery(query)
	if q.empty() {
		return nil, fmt.Errorf("search: %q: %w", query, ErrEmptyQuery)
	}
	if login != "" {
		s.mu.Lock()
		h := append(s.history[login], query)
		if len(h) > HistoryLimit {
			h = h[len(h)-HistoryLimit:]
		}
		s.history[login] = h
		s.mu.Unlock()
	}
	// The exact keys every kind is probed with: bare terms, then fielded.
	keys := slices.Clip(q.Terms)
	for _, ft := range q.FieldTerms {
		keys = append(keys, fulltext.FieldKey(ft.Field, ft.Term))
	}
	hits := []Hit{}
	var buf []byte
	for _, kind := range s.kinds {
		if len(q.Kinds) > 0 && !slices.Contains(q.Kinds, kind) {
			continue
		}
		text := tx.Text(kind)
		ids := q.match(text, keys)
		if len(ids) == 0 {
			continue
		}
		fields := q.textFields(text, len(ids))
		hits = slices.Grow(hits, len(ids))
		for _, id := range ids {
			rec, err := tx.GetRef(kind, id)
			if err != nil {
				return nil, err // the index and the records are one snapshot
			}
			var score float64
			score, buf = q.score(rec, fields, buf)
			hits = append(hits, Hit{Kind: kind, ID: id, Score: score})
		}
	}
	slices.SortFunc(hits, func(a, b Hit) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), strings.Compare(a.Kind, b.Kind), cmp.Compare(a.ID, b.ID))
	})
	return hits, nil
}

// match returns the ascending ids of the text index's records that hold
// every key and prefix of the query, or under OR any of them. A prefix is
// held by a record holding any term extending it.
func (q *Query) match(text store.TextIndex, keys []string) []int64 {
	var arr [8][]int64
	lists := arr[:0]
	for _, key := range keys {
		ids := text.Postings(key)
		if len(ids) == 0 && !q.Or {
			return nil
		}
		lists = append(lists, ids)
	}
	for _, p := range q.Prefixes {
		var ids []int64
		text.Walk(func(key string, post []int64) bool {
			// Field keys (field\x00term) are skipped: a prefix matches terms.
			if strings.HasPrefix(key, p) && strings.IndexByte(key, 0) < 0 {
				ids = append(ids, post...)
			}
			return true
		})
		slices.Sort(ids)
		lists = append(lists, slices.Compact(ids))
	}
	if q.Or {
		var ids []int64
		for _, l := range lists {
			ids = append(ids, l...)
		}
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	slices.SortFunc(lists, func(a, b []int64) int { return len(a) - len(b) })
	if len(lists[0]) == 0 || len(lists) == 1 {
		return lists[0]
	}
	var out []int64
	pos := make([]int, len(lists))
next:
	for _, id := range lists[0] {
		for i, l := range lists[1:] {
			j := seek(l, pos[i], id)
			pos[i] = j
			if j == len(l) {
				break next
			}
			if l[j] != id {
				continue next
			}
		}
		out = append(out, id)
	}
	return out
}

// seek returns the index of the first element of the ascending slice l at
// or after from that is not below id. It gallops from from, so advancing
// through a dense run costs O(1) per step and skipping a gap of g costs
// O(log g).
func seek(l []int64, from int, id int64) int {
	hi, step := from, 1
	for hi < len(l) && l[hi] < id {
		from = hi + 1
		hi += step
		step *= 2
	}
	j, _ := slices.BinarySearch(l[from:min(hi, len(l))], id)
	return from + j
}

// narrowHits is the hit count above which score reads only the fields
// holding a query term, found by probing the fielded keys once, rather
// than every text field of each hit record.
const narrowHits = 4

// textFields returns the fields score must read for nhits hits: those in
// which some term of the query occurs in the index's snapshot. It returns
// nil, meaning every field, for few hits and for prefix terms, which may
// occur in any field.
func (q *Query) textFields(text store.TextIndex, nhits int) []string {
	if len(q.Prefixes) > 0 || nhits <= narrowHits {
		return nil
	}
	var out []string
	for _, field := range text.Fields() {
		in := slices.ContainsFunc(q.FieldTerms, func(ft struct{ Field, Term string }) bool { return ft.Field == field })
		for _, t := range q.Terms {
			if in {
				break
			}
			in = len(text.Postings(fulltext.FieldKey(field, t))) > 0
		}
		if in {
			out = append(out, field)
		}
	}
	return out
}

// score recounts the query's term frequencies in rec, in the given fields
// or, with fields nil, in all of them: one for every occurrence of a term
// or of a term extending a prefix, and for every occurrence of a fielded
// term in its field. buf is tokenizer scratch, returned for reuse.
func (q *Query) score(rec store.Record, fields []string, buf []byte) (float64, []byte) {
	n := 0
	add := func(field string, v any) {
		count := func(term string) {
			for _, t := range q.Terms {
				if term == t {
					n++
				}
			}
			for _, ft := range q.FieldTerms {
				if ft.Field == field && term == ft.Term {
					n++
				}
			}
			for _, p := range q.Prefixes {
				if strings.HasPrefix(term, p) {
					n++
				}
			}
		}
		switch x := v.(type) {
		case string:
			buf = fulltext.Scan(buf, x, count)
		case []string:
			for _, s := range x {
				buf = fulltext.Scan(buf, s, count)
			}
		}
	}
	if fields == nil {
		for field, v := range rec {
			add(field, v)
		}
	}
	for _, field := range fields {
		add(field, rec[field])
	}
	return float64(n), buf
}

// History returns the login's recent queries, newest last.
func (s *Service) History(login string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.history[login]...)
}

// SaveQuery persists a named query for later reuse.
func (s *Service) SaveQuery(tx *store.Tx, owner, name, query string) (int64, error) {
	if name == "" || query == "" {
		return 0, fmt.Errorf("search: empty name or query")
	}
	return tx.Insert(savedTable, store.Record{
		"name": name, "owner": owner, "query": query,
	})
}

// SavedQueries lists the owner's saved queries in id order.
func (s *Service) SavedQueries(tx *store.Tx, owner string) ([]SavedQuery, error) {
	rs, err := tx.FindRef(savedTable, "owner", owner)
	if err != nil {
		return nil, err
	}
	out := make([]SavedQuery, 0, len(rs))
	for _, r := range rs {
		out = append(out, SavedQuery{
			ID: r.ID(), Name: r.String("name"),
			Owner: r.String("owner"), Query: r.String("query"),
		})
	}
	return out, nil
}

// RunSaved executes a saved query by id. Per the paper, the invocation
// "will of course include all objects satisfying the query at run-time".
func (s *Service) RunSaved(login string, id int64) ([]Hit, error) {
	r, err := s.rg.Store().Get(savedTable, id)
	if err != nil {
		return nil, err
	}
	return s.Search(login, r.String("query"))
}
