package search_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"

	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/store"
)

// The map-based engine search used before its index moved into the store,
// kept as the reference the store-backed engine must agree with: term ->
// "kind:id" -> term frequency postings, fielded postings, an inverted scan
// for prefixes, and the same TF ranking.

var refStopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "and": true,
	"or": true, "in": true, "on": true, "to": true, "is": true,
	"for": true, "with": true,
}

func refTokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, f := range fields {
		if len(f) < 2 || refStopwords[f] {
			continue
		}
		out = append(out, f)
	}
	return out
}

type refEngine struct {
	terms  map[string]map[string]int
	fields map[string]map[string]int
}

// newRefEngine indexes every committed record of the searchable kinds.
func newRefEngine(sys *core.System) *refEngine {
	e := &refEngine{terms: map[string]map[string]int{}, fields: map[string]map[string]int{}}
	_ = sys.View(func(tx *store.Tx) error {
		for _, kind := range append(sys.Registry.Kinds(), "annotation") {
			_ = tx.ScanRef(kind, func(r store.Record) bool {
				e.index(kind+":"+strconv.FormatInt(r.ID(), 10), r)
				return true
			})
		}
		return nil
	})
	return e
}

func (e *refEngine) index(key string, rec store.Record) {
	for field, v := range rec {
		var text string
		switch x := v.(type) {
		case string:
			text = x
		case []string:
			text = strings.Join(x, " ")
		default:
			continue
		}
		for _, tok := range refTokenize(text) {
			refAdd(e.terms, tok, key)
			refAdd(e.fields, field+"\x00"+tok, key)
		}
	}
}

func refAdd(postings map[string]map[string]int, term, key string) {
	if postings[term] == nil {
		postings[term] = map[string]int{}
	}
	postings[term][key]++
}

func (e *refEngine) search(q search.Query) []search.Hit {
	var postings []map[string]int
	for _, t := range q.Terms {
		postings = append(postings, e.terms[t])
	}
	for _, ft := range q.FieldTerms {
		postings = append(postings, e.fields[ft.Field+"\x00"+ft.Term])
	}
	for _, prefix := range q.Prefixes {
		merged := map[string]int{}
		for term, posting := range e.terms {
			if strings.HasPrefix(term, prefix) {
				for key, tf := range posting {
					merged[key] += tf
				}
			}
		}
		postings = append(postings, merged)
	}
	scores := map[string]float64{}
	if q.Or {
		for _, p := range postings {
			for key, tf := range p {
				scores[key] += float64(tf)
			}
		}
	} else {
		sort.Slice(postings, func(i, j int) bool { return len(postings[i]) < len(postings[j]) })
	next:
		for key := range postings[0] {
			score := 0.0
			for _, p := range postings {
				tf, ok := p[key]
				if !ok {
					continue next
				}
				score += float64(tf)
			}
			scores[key] = score
		}
	}
	var hits []search.Hit
	for key, score := range scores {
		i := strings.LastIndexByte(key, ':')
		kind := key[:i]
		id, _ := strconv.ParseInt(key[i+1:], 10, 64)
		if len(q.Kinds) > 0 && !slices.Contains(q.Kinds, kind) {
			continue
		}
		hits = append(hits, search.Hit{Kind: kind, ID: id, Score: score})
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.ID < b.ID
	})
	return hits
}

// sameHits compares two hit lists, treating nil and empty alike.
func sameHits(a, b []search.Hit) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// refPopulation is a small genload population with search enabled, then
// reshaped by creates, text-changing updates and deletes.
var refPopulation = sync.OnceValues(func() (*core.System, error) {
	sys, err := core.New(core.Options{DisableAudit: true})
	if err != nil {
		return nil, err
	}
	if err := genload.Generate(sys, genload.FGCZJan2010.Scaled(0.02)); err != nil {
		return nil, err
	}
	var project int64
	var created []int64
	err = sys.View(func(tx *store.Tx) error {
		return tx.ScanRef(model.KindProject, func(r store.Record) bool {
			project = r.ID()
			return false
		})
	})
	if err != nil {
		return nil, err
	}
	err = sys.Update(func(tx *store.Tx) error {
		for i := 0; i < 20; i++ {
			id, err := sys.DB.CreateSample(tx, "ref", model.Sample{
				Name: fmt.Sprintf("ref-sample-%02d", i), Project: project,
				Description: fmt.Sprintf("Arabidopsis light series %d; light, light and leaf", i%3),
			})
			if err != nil {
				return err
			}
			created = append(created, id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = sys.Update(func(tx *store.Tx) error {
		for i, id := range created {
			switch i % 4 {
			case 0: // text changes
				if err := sys.DB.UpdateSample(tx, "ref", id, map[string]any{
					"name": fmt.Sprintf("renamed-%02d", i), "description": "dark root series",
				}); err != nil {
					return err
				}
			case 1:
				if err := sys.Registry.Delete(tx, model.KindSample, id, "ref"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Rewrite some generated samples too, copying a term into a second field.
	err = sys.Update(func(tx *store.Tx) error {
		for id := int64(5); id <= 60; id += 5 {
			r, err := tx.GetRef(model.KindSample, id)
			if err != nil {
				return err
			}
			if err := sys.DB.UpdateSample(tx, "ref", id, map[string]any{"description": r.String("name") + " leaf"}); err != nil {
				return err
			}
		}
		return nil
	})
	return sys, err
})

var refQueries = []string{
	// AND
	"arabidopsis", "arabidopsis thaliana", "sample-00012", "homo sapiens leaf", "light light",
	"renamed dark", "nonexistent", "leaf root",
	"ref sample series light leaf arabidopsis light 00 01 02", // more terms than match's inline list array
	// OR
	"leaf OR root", "tumor OR healthy OR nonexistent", "light OR arabidopsis OR dark",
	// fielded
	"species:arabidopsis", "name:sample", "species:homo tissue:leaf", "description:leaf",
	"species:nonexistent leaf", "Species:Mus",
	// prefix
	"arab*", "sampl*", "00*", "resource-0000*", "ren* dark", "zz*",
	// kind-filtered
	"kind:sample arabidopsis", "kind:extract kind:sample leaf", "kind:dataresource cel",
	"kind:sample arab* OR leaf", "kind:annotation leaf", "kind: leaf", "kind:nosuch leaf",
}

// TestSearchMatchesReferenceEngine: the store-backed engine returns the
// reference engine's hits, scores and order for AND, OR, fielded, prefix
// and kind-filtered queries over a genload population reshaped by creates,
// text-changing updates and deletes.
func TestSearchMatchesReferenceEngine(t *testing.T) {
	sys, err := refPopulation()
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefEngine(sys)
	nonEmpty := 0
	for _, q := range refQueries {
		got, err := sys.Search.Search("", q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want := ref.search(search.ParseQuery(q))
		if !sameHits(got, want) {
			t.Errorf("%q: got %d hits %v\nwant %d hits %v", q, len(got), head(got), len(want), head(want))
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(refQueries)/2 {
		t.Errorf("only %d of %d reference queries have hits; the comparison is too weak", nonEmpty, len(refQueries))
	}
}

func head(h []search.Hit) []search.Hit { return h[:min(len(h), 5)] }
