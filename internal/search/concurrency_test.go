package search

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
)

// TestConcurrentSearchAndWrites runs lock-free searches over pinned
// snapshots against writers committing text-index deltas; run with -race.
// Results only assert internal consistency, since the doc set moves under
// the queries.
func TestConcurrentSearchAndWrites(t *testing.T) {
	fx := newFixture(t)
	const (
		writers = 2
		seekers = 4
		rounds  = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := fx.s.Update(func(tx *store.Tx) error {
					_, err := fx.db.CreateSample(tx, "writer", model.Sample{
						Name:        fmt.Sprintf("racer-%d-%d", w, i),
						Project:     fx.project,
						Description: "arabidopsis racer replicate",
					})
					return err
				})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < seekers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				hits, err := fx.svc.Search("", "racer")
				if err != nil {
					t.Errorf("seeker %d: %v", r, err)
					return
				}
				for _, h := range hits {
					if h.Kind == "" || h.ID == 0 || h.Score <= 0 {
						t.Errorf("seeker %d: malformed hit %+v", r, h)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// After the dust settles the index must agree with committed state.
	hits, err := fx.svc.Search("", "racer")
	if err != nil {
		t.Fatal(err)
	}
	if want := writers * rounds; len(hits) != want {
		t.Fatalf("final hits = %d, want %d", len(hits), want)
	}
}
