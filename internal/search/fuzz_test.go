package search_test

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fulltext"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/store"
)

// fuzzSystem is a small searchable population shared by every fuzz input.
var fuzzSystem = sync.OnceValues(func() (*core.System, error) {
	sys, err := core.New(core.Options{DisableAudit: true})
	if err != nil {
		return nil, err
	}
	err = sys.Update(func(tx *store.Tx) error {
		project, err := sys.DB.CreateProject(tx, "fuzz", model.Project{Name: "p1", Description: "Plant light response"})
		if err != nil {
			return err
		}
		for _, s := range []model.Sample{
			{Name: "AT-light-1", Species: "Arabidopsis thaliana", Description: "light, light and leaf"},
			{Name: "AT-dark-2", Species: "Arabidopsis thaliana", Description: "dark root series"},
			{Name: "mouse-1", Species: "Mus musculus", Description: "Zürich ÉCOLE straße İstanbul ǅemal"},
			{Name: "x", Description: "the of a I 42 x-ray Ⅻ ½ ٣"},
		} {
			s.Project = project
			if _, err := sys.DB.CreateSample(tx, "fuzz", s); err != nil {
				return err
			}
		}
		return nil
	})
	return sys, err
})

// FuzzParseQuery: parsing never panics and only emits index terms
// (lower-case, at least fulltext.MinLen bytes, no stopword); the
// tokenizer agrees with the reference one; and Search either rejects the
// query as empty or returns exactly the reference engine's hits.
func FuzzParseQuery(f *testing.F) {
	sys, err := fuzzSystem()
	if err != nil {
		f.Fatal(err)
	}
	ref := newRefEngine(sys)
	f.Fuzz(func(t *testing.T, q string) {
		pq := search.ParseQuery(q)
		terms := slices.Concat(pq.Terms, pq.Prefixes)
		for _, ft := range pq.FieldTerms {
			terms = append(terms, ft.Term)
		}
		for _, term := range terms {
			if strings.ToLower(term) != term || len(term) < fulltext.MinLen || fulltext.IsStopword(term) {
				t.Fatalf("ParseQuery(%q) emitted %q", q, term)
			}
		}
		if got, want := fulltext.Tokenize(q), refTokenize(q); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", q, got, want)
		}
		hits, err := sys.Search.Search("", q)
		if errors.Is(err, search.ErrEmptyQuery) {
			return
		}
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		if want := ref.search(pq); !sameHits(hits, want) {
			t.Fatalf("Search(%q) = %v, reference %v", q, hits, want)
		}
	})
}
