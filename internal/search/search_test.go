package search

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/fulltext"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/vocab"
)

type fixture struct {
	svc     *Service
	db      *model.DB
	vocab   *vocab.Service
	s       *store.Store
	project int64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := store.New()
	rg := entity.NewRegistry(s, events.NewBus())
	if err := model.RegisterSchema(rg); err != nil {
		t.Fatal(err)
	}
	db := model.NewDB(rg)
	vs := vocab.New(rg, model.AnnotatedFields(rg))
	svc := New(rg)
	fx := &fixture{svc: svc, db: db, vocab: vs, s: s}
	err := s.Update(func(tx *store.Tx) error {
		var err error
		fx.project, err = db.CreateProject(tx, "setup", model.Project{
			Name: "p1000", Description: "Plant light response study",
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *fixture) addSample(t *testing.T, s model.Sample) int64 {
	t.Helper()
	s.Project = fx.project
	var id int64
	err := fx.s.Update(func(tx *store.Tx) error {
		var err error
		id, err = fx.db.CreateSample(tx, "alice", s)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestTokenize(t *testing.T) {
	got := fulltext.Tokenize("The Arabidopsis-Thaliana light/dark experiment 42!")
	want := []string{"arabidopsis", "thaliana", "light", "dark", "experiment", "42"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if len(fulltext.Tokenize("a I of the")) != 0 {
		t.Error("stopwords/short tokens survived")
	}
}

func TestParseQuery(t *testing.T) {
	q := ParseQuery("kind:sample species:Arabidopsis light OR dark")
	if len(q.Kinds) != 1 || q.Kinds[0] != "sample" {
		t.Errorf("kinds = %v", q.Kinds)
	}
	if len(q.FieldTerms) != 1 || q.FieldTerms[0].Field != "species" || q.FieldTerms[0].Term != "arabidopsis" {
		t.Errorf("field terms = %v", q.FieldTerms)
	}
	if len(q.Terms) != 2 || !q.Or {
		t.Errorf("terms = %v or=%v", q.Terms, q.Or)
	}
}

func TestQuickSearchFindsSample(t *testing.T) {
	fx := newFixture(t)
	id := fx.addSample(t, model.Sample{Name: "AT-light-1", Species: "Arabidopsis thaliana", Treatment: "light"})
	fx.addSample(t, model.Sample{Name: "mouse-1", Species: "Mus musculus"})
	hits, err := fx.svc.Search("alice", "arabidopsis")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Kind != model.KindSample || hits[0].ID != id {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestSearchANDSemantics(t *testing.T) {
	fx := newFixture(t)
	both := fx.addSample(t, model.Sample{Name: "s1", Species: "Arabidopsis", Treatment: "lumen"})
	fx.addSample(t, model.Sample{Name: "s2", Species: "Arabidopsis", Treatment: "dusk"})
	hits, err := fx.svc.Search("", "arabidopsis lumen")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != both {
		t.Fatalf("AND hits = %+v", hits)
	}
}

func TestSearchORSemantics(t *testing.T) {
	fx := newFixture(t)
	fx.addSample(t, model.Sample{Name: "s1", Treatment: "lumen"})
	fx.addSample(t, model.Sample{Name: "s2", Treatment: "dusk"})
	hits, err := fx.svc.Search("", "lumen OR dusk")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("OR hits = %+v", hits)
	}
}

func TestFieldedSearch(t *testing.T) {
	fx := newFixture(t)
	// "lumen" appears in treatment of one sample and name of another.
	inTreatment := fx.addSample(t, model.Sample{Name: "s1", Treatment: "lumen"})
	fx.addSample(t, model.Sample{Name: "lumen-meter", Species: "none"})
	hits, err := fx.svc.Search("", "treatment:lumen")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != inTreatment {
		t.Fatalf("fielded hits = %+v", hits)
	}
}

func TestKindFilter(t *testing.T) {
	fx := newFixture(t)
	fx.addSample(t, model.Sample{Name: "light-sample"})
	// The project description also contains "light".
	hits, err := fx.svc.Search("", "kind:project light")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Kind != model.KindProject {
		t.Fatalf("kind-filtered hits = %+v", hits)
	}
}

func TestIndexFollowsUpdatesAndDeletes(t *testing.T) {
	fx := newFixture(t)
	id := fx.addSample(t, model.Sample{Name: "before-rename"})
	if hits, _ := fx.svc.Search("", "before"); len(hits) != 1 {
		t.Fatal("initial index miss")
	}
	_ = fx.s.Update(func(tx *store.Tx) error {
		return fx.db.UpdateSample(tx, "alice", id, map[string]any{"name": "after-rename"})
	})
	if hits, _ := fx.svc.Search("", "before"); len(hits) != 0 {
		t.Error("stale term after update")
	}
	if hits, _ := fx.svc.Search("", "after"); len(hits) != 1 {
		t.Error("new term missing after update")
	}
	_ = fx.s.Update(func(tx *store.Tx) error {
		return fx.db.Registry().Delete(tx, model.KindSample, id, "alice")
	})
	if hits, _ := fx.svc.Search("", "after"); len(hits) != 0 {
		t.Error("deleted record still indexed")
	}
}

func TestRolledBackWritesNeverIndexed(t *testing.T) {
	fx := newFixture(t)
	boom := errors.New("boom")
	err := fx.s.Update(func(tx *store.Tx) error {
		_, err := fx.db.CreateSample(tx, "alice", model.Sample{
			Name: "phantom-sample", Project: fx.project,
		})
		if err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	hits, _ := fx.svc.Search("", "phantom")
	if len(hits) != 0 {
		t.Errorf("rolled-back record indexed: %+v", hits)
	}
}

func TestAnnotationsSearchable(t *testing.T) {
	fx := newFixture(t)
	_ = fx.s.Update(func(tx *store.Tx) error {
		_, err := fx.vocab.AddTerm(tx, "alice", model.VocabDiseaseState, "Hopeless", false)
		return err
	})
	hits, err := fx.svc.Search("", "hopeless")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Kind != "annotation" {
		t.Fatalf("annotation hits = %+v", hits)
	}
}

func TestResourceContentSearchable(t *testing.T) {
	fx := newFixture(t)
	_ = fx.s.Update(func(tx *store.Tx) error {
		wid, err := fx.db.CreateWorkunit(tx, "alice", model.Workunit{Name: "wu", Project: fx.project})
		if err != nil {
			return err
		}
		_, err = fx.db.CreateDataResource(tx, "alice", model.DataResource{
			Name: "report.txt", Workunit: wid,
			Content: "Differential expression detected in circadian genes",
		})
		return err
	})
	hits, err := fx.svc.Search("", "circadian")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Kind != model.KindDataResource {
		t.Fatalf("content hits = %+v", hits)
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.svc.Search("", "   "); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty query: %v", err)
	}
	if _, err := fx.svc.Search("", "a I"); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("stopword-only query: %v", err)
	}
}

func TestSearchHistory(t *testing.T) {
	fx := newFixture(t)
	fx.addSample(t, model.Sample{Name: "s"})
	for i := 0; i < HistoryLimit+5; i++ {
		_, _ = fx.svc.Search("alice", fmt.Sprintf("query%d", i))
	}
	h := fx.svc.History("alice")
	if len(h) != HistoryLimit {
		t.Fatalf("history length = %d", len(h))
	}
	if h[len(h)-1] != fmt.Sprintf("query%d", HistoryLimit+4) {
		t.Errorf("newest entry = %q", h[len(h)-1])
	}
	if len(fx.svc.History("bob")) != 0 {
		t.Error("history leaked across users")
	}
	// Failed (empty) queries are not recorded.
	before := len(fx.svc.History("alice"))
	_, _ = fx.svc.Search("alice", "")
	if len(fx.svc.History("alice")) != before {
		t.Error("empty query recorded in history")
	}
}

func TestSavedQueriesReexecuteAgainstLiveData(t *testing.T) {
	fx := newFixture(t)
	fx.addSample(t, model.Sample{Name: "light-1", Treatment: "light"})
	var qid int64
	_ = fx.s.Update(func(tx *store.Tx) error {
		var err error
		qid, err = fx.svc.SaveQuery(tx, "alice", "my lights", "treatment:light")
		return err
	})
	hits, err := fx.svc.RunSaved("alice", qid)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("first run hits = %+v", hits)
	}
	// New matching object created after saving: the saved query sees it.
	fx.addSample(t, model.Sample{Name: "light-2", Treatment: "light"})
	hits, err = fx.svc.RunSaved("alice", qid)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("second run hits = %+v", hits)
	}
	// Listing.
	_ = fx.s.View(func(tx *store.Tx) error {
		qs, err := fx.svc.SavedQueries(tx, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) != 1 || qs[0].Name != "my lights" || qs[0].Query != "treatment:light" {
			t.Errorf("saved = %+v", qs)
		}
		return nil
	})
	// Validation.
	err = fx.s.Update(func(tx *store.Tx) error {
		_, err := fx.svc.SaveQuery(tx, "alice", "", "x")
		return err
	})
	if err == nil {
		t.Error("empty name accepted")
	}
}

func TestRankingPrefersHigherTF(t *testing.T) {
	fx := newFixture(t)
	weak := fx.addSample(t, model.Sample{Name: "luminescence"})
	strong := fx.addSample(t, model.Sample{
		Name: "luminescence", Treatment: "luminescence",
		Description: "luminescence luminescence luminescence",
	})
	hits, err := fx.svc.Search("", "luminescence")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].ID != strong || hits[1].ID != weak {
		t.Fatalf("ranking = %+v", hits)
	}
	if hits[0].Score <= hits[1].Score {
		t.Errorf("scores = %+v", hits)
	}
}

func TestExportCSV(t *testing.T) {
	fx := newFixture(t)
	fx.addSample(t, model.Sample{Name: "exported-sample", Species: "Arabidopsis"})
	var buf bytes.Buffer
	err := fx.s.View(func(tx *store.Tx) error {
		hits, err := fx.svc.SearchTx(tx, "", "arabidopsis")
		if err != nil {
			return err
		}
		return fx.svc.ExportCSV(tx, &buf, hits)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kind,id,score,name\n") {
		t.Errorf("header = %q", out)
	}
	if !strings.Contains(out, "exported-sample") {
		t.Errorf("csv = %q", out)
	}
}

func TestExportRecordsCSV(t *testing.T) {
	fx := newFixture(t)
	a := fx.addSample(t, model.Sample{Name: "r1", Species: "X"})
	b := fx.addSample(t, model.Sample{Name: "r2", Species: "Y"})
	var buf bytes.Buffer
	if err := fx.svc.ExportRecordsCSV(&buf, model.KindSample, []int64{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "id,") {
		t.Errorf("header = %q", lines[0])
	}
	if err := fx.svc.ExportRecordsCSV(&buf, "nokind", nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestExportReadsSearchSnapshot: an export names its hits from the
// snapshot the search ran in, so a hit deleted after the search is still
// exported with the name it matched under.
func TestExportReadsSearchSnapshot(t *testing.T) {
	fx := newFixture(t)
	id := fx.addSample(t, model.Sample{Name: "doomed-sample"})
	tx, err := fx.s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	hits, err := fx.svc.SearchTx(tx, "", "doomed")
	if err != nil || len(hits) != 1 || hits[0].ID != id {
		t.Fatalf("hits = %+v, %v", hits, err)
	}
	if err := fx.s.Update(func(utx *store.Tx) error {
		return fx.db.Registry().Delete(utx, model.KindSample, id, "alice")
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fx.svc.ExportCSV(tx, &buf, hits); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "doomed-sample") {
		t.Errorf("export lost the deleted hit's name: %q", buf.String())
	}
	if hits, _ := fx.svc.Search("", "doomed"); len(hits) != 0 {
		t.Errorf("deleted sample still found: %+v", hits)
	}
}

func TestPreexistingRecordsIndexedOnStartup(t *testing.T) {
	// Build data first, then create the search service: it must index
	// existing records.
	s := store.New()
	rg := entity.NewRegistry(s, events.NewBus())
	if err := model.RegisterSchema(rg); err != nil {
		t.Fatal(err)
	}
	db := model.NewDB(rg)
	_ = s.Update(func(tx *store.Tx) error {
		pid, _ := db.CreateProject(tx, "x", model.Project{Name: "preexisting"})
		_, err := db.CreateSample(tx, "x", model.Sample{Name: "old-sample", Project: pid})
		return err
	})
	svc := New(rg)
	hits, err := svc.Search("", "preexisting")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %+v", hits)
	}
}
