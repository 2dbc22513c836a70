package store

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fulltext"
)

// textPostings dumps a table's text index as of the store's latest
// version.
func textPostings(s *Store, table string) map[string][]int64 {
	out := map[string][]int64{}
	_ = s.View(func(tx *Tx) error {
		tx.Text(table).Walk(func(key string, ids []int64) bool {
			out[key] = slices.Clone(ids)
			return true
		})
		return nil
	})
	return out
}

// wantTextPostings derives, from the table's live records, the postings
// its text index must hold.
func wantTextPostings(s *Store, table string) map[string][]int64 {
	out := map[string][]int64{}
	_ = s.View(func(tx *Tx) error {
		return tx.ScanRef(table, func(r Record) bool {
			seen := map[string]bool{}
			for field, v := range r {
				texts, _ := v.([]string)
				if s, ok := v.(string); ok {
					texts = []string{s}
				}
				for _, text := range texts {
					for _, term := range fulltext.Tokenize(text) {
						for _, key := range []string{term, fulltext.FieldKey(field, term)} {
							if !seen[key] {
								seen[key] = true
								out[key] = append(out[key], r.ID())
							}
						}
					}
				}
			}
			return true
		})
	})
	return out
}

var textWords = []string{"Arabidopsis", "thaliana", "light", "DARK", "the", "of", "a", "x",
	"root-tip", "Zürich", "ÉCOLE", "42", "sample_7", "batch", "light/dark"}

func randText(rng *rand.Rand) string {
	words := make([]string, rng.Intn(5))
	for i := range words {
		words[i] = textWords[rng.Intn(len(textWords))]
	}
	return strings.Join(words, []string{" ", ", ", "-", "\t"}[rng.Intn(4)])
}

// TestTextIndexAgreesAcrossApplyPaths drives one random transaction
// stream (inserts, text-changing and text-preserving rewrites, deletes)
// through the three ways a version is built — commit, reopen from
// snapshot plus WAL replay, and a follower resynced by snapshot and fed
// replicated frames — and requires the text postings of all three to be
// identical to the postings derived from the live records.
func TestTextIndexAgreesAcrossApplyPaths(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{Sync: SyncOff, SnapshotEvery: -1}
	p, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.CreateTable("doc"); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateIndex("doc", "kind", false); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateTextIndex("doc"); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateIndex("doc", textIndexName, false); !errors.Is(err, ErrExists) {
		t.Fatalf("field index under the text index's name: %v, want ErrExists", err)
	}

	rng := rand.New(rand.NewSource(7))
	var live []int64
	record := func() Record {
		return Record{
			"title": randText(rng),
			"tags":  []string{randText(rng), randText(rng)},
			"kind":  []string{"a", "b"}[rng.Intn(2)],
			"n":     int64(rng.Intn(100)),
		}
	}
	step := func() {
		err := p.Update(func(tx *Tx) error {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				switch op := rng.Intn(10); {
				case op < 4 || len(live) == 0:
					id, err := tx.Insert("doc", record())
					if err != nil {
						return err
					}
					live = append(live, id)
				case op < 6: // rewrite that keeps the text
					id := live[rng.Intn(len(live))]
					r, err := tx.Get("doc", id)
					if err != nil {
						return err
					}
					r["n"] = r.Int("n") + 1
					if err := tx.Put("doc", id, r); err != nil {
						return err
					}
				case op < 8: // rewrite that moves or changes terms
					id := live[rng.Intn(len(live))]
					r, err := tx.Get("doc", id)
					if err != nil {
						return err
					}
					r["tags"] = []string{r.String("title")}
					r["title"] = randText(rng)
					if err := tx.Put("doc", id, r); err != nil {
						return err
					}
				default:
					i := rng.Intn(len(live))
					if err := tx.Delete("doc", live[i]); err != nil {
						return err
					}
					live = slices.Delete(live, i, i+1)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 40; i++ {
		step()
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f := New()
	f.SetReplica(true)
	_, write := p.PinnedSnapshot()
	var snap strings.Builder
	if err := write(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ResetFromSnapshot(strings.NewReader(snap.String())); err != nil {
		t.Fatal(err)
	}
	sub, err := p.SubscribeCommits(1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		step()
	}
	for f.CommitSeq() < p.CommitSeq() {
		if _, err := f.ApplyReplicated((<-sub.C).Payload); err != nil {
			t.Fatal(err)
		}
	}

	want := wantTextPostings(p, "doc")
	if len(want) == 0 {
		t.Fatal("stream left no text to index")
	}
	if got := textPostings(p, "doc"); !reflect.DeepEqual(got, want) {
		t.Errorf("committed text postings differ from the live records':\n got %v\nwant %v", got, want)
	}
	if got := textPostings(f, "doc"); !reflect.DeepEqual(got, want) {
		t.Errorf("follower text postings differ from the primary's:\n got %v\nwant %v", got, want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := textPostings(r, "doc"); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened text postings differ from the primary's:\n got %v\nwant %v", got, want)
	}

	// The text index stays invisible to lookups: no field is named after
	// it, so nothing matches.
	_ = r.View(func(tx *Tx) error {
		if ids, err := tx.Lookup("doc", textIndexName, "light"); err != nil || len(ids) != 0 {
			t.Errorf("Lookup through the text index: %v, %v", ids, err)
		}
		return nil
	})
}
