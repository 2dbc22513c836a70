package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// seedGroupedSamples registers a few samples so grouped histograms have
// more than one bucket.
func seedGroupedSamples(t *testing.T, fx *fixture) {
	t.Helper()
	for i, species := range []string{"Arabidopsis thaliana", "Arabidopsis thaliana", ""} {
		code := fx.call(t, "alice", "POST", "/api/samples", map[string]any{
			"Sample": model.Sample{
				Name: "agg-seed-" + string(rune('a'+i)), Project: fx.project, Species: species,
			},
		}, nil)
		if code != http.StatusCreated {
			t.Fatalf("seed sample %d: %d", i, code)
		}
	}
}

type groupedResp struct {
	Kind   string `json:"kind"`
	By     string `json:"by"`
	Groups []struct {
		Key   any `json:"key"`
		Count int `json:"count"`
	} `json:"groups"`
	AsOf uint64 `json:"asOf"`
	Plan string `json:"plan"`
}

func TestStatsGroupedEndpoint(t *testing.T) {
	fx := newFixture(t)
	seedGroupedSamples(t, fx)

	resp, body := fx.get(t, "alice", "/api/stats/sample?by=species&explain=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grouped stats: %d (%s)", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("grouped stats: missing ETag")
	}
	var out groupedResp
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Kind != "sample" || out.By != "species" || out.AsOf == 0 {
		t.Fatalf("bad envelope: %+v", out)
	}
	if !strings.Contains(out.Plan, "agg=count(postings)") || !strings.Contains(out.Plan, "by=species") {
		t.Errorf("explain plan %q does not name the postings strategy", out.Plan)
	}
	found := 0
	for _, g := range out.Groups {
		if g.Key == "Arabidopsis thaliana" {
			found = g.Count
		}
		if g.Count < 1 {
			t.Errorf("group %v with non-positive count %d", g.Key, g.Count)
		}
	}
	if found != 2 {
		t.Errorf("Arabidopsis group = %d, want 2", found)
	}

	// Conditional replay: 304 until a commit moves the seq.
	resp2, body2 := fx.get(t, "alice", "/api/stats/sample?by=species", map[string]string{"If-None-Match": etag})
	if resp2.StatusCode != http.StatusNotModified || len(body2) != 0 {
		t.Fatalf("conditional grouped stats: %d (%d bytes), want 304 empty", resp2.StatusCode, len(body2))
	}
	if code := fx.call(t, "alice", "POST", "/api/samples", map[string]any{
		"Sample": model.Sample{Name: "agg-move", Project: fx.project},
	}, nil); code != http.StatusCreated {
		t.Fatalf("probe write: %d", code)
	}
	resp3, _ := fx.get(t, "alice", "/api/stats/sample?by=species", map[string]string{"If-None-Match": etag})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-commit conditional: %d, want 200", resp3.StatusCode)
	}
	if resp3.Header.Get("ETag") == etag {
		t.Error("grouped stats ETag did not advance past a commit")
	}

	// Validation surface.
	for _, c := range []struct {
		path string
		want int
		code string
	}{
		{"/api/stats/nope?by=state", http.StatusNotFound, "not_found"},
		{"/api/stats/sample", http.StatusBadRequest, "bad_request"},
		{"/api/stats/sample?by=tissue", http.StatusBadRequest, "bad_request"},
		{"/api/stats/sample?by=bogus", http.StatusBadRequest, "bad_request"},
	} {
		resp, body := fx.get(t, "alice", c.path, nil)
		if resp.StatusCode != c.want {
			t.Errorf("%s: %d, want %d", c.path, resp.StatusCode, c.want)
			continue
		}
		var env errEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Code != c.code {
			t.Errorf("%s: envelope %s, want code %q", c.path, body, c.code)
		}
	}

	// The endpoint sits behind auth.
	if resp, _ := fx.get(t, "", "/api/stats/sample?by=species", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated grouped stats: %d, want 401", resp.StatusCode)
	}
}

func TestDashboardETagConditional(t *testing.T) {
	fx := newFixture(t)

	resp1, body1 := fx.get(t, "", "/", nil)
	etag := resp1.Header.Get("ETag")
	if resp1.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("dashboard: %d etag=%q", resp1.StatusCode, etag)
	}
	if !strings.Contains(string(body1), "Swiss Army Knife") {
		t.Error("dashboard missing title")
	}
	resp2, body2 := fx.get(t, "", "/", map[string]string{"If-None-Match": etag})
	if resp2.StatusCode != http.StatusNotModified || len(body2) != 0 {
		t.Fatalf("conditional dashboard: %d (%d bytes), want 304 empty", resp2.StatusCode, len(body2))
	}
	if code := fx.call(t, "alice", "POST", "/api/samples", map[string]any{
		"Sample": model.Sample{Name: "dash-probe", Project: fx.project},
	}, nil); code != http.StatusCreated {
		t.Fatalf("probe write: %d", code)
	}
	resp3, body3 := fx.get(t, "", "/", map[string]string{"If-None-Match": etag})
	if resp3.StatusCode != http.StatusOK || !strings.Contains(string(body3), "Workunits") {
		t.Fatalf("post-commit dashboard: %d, want 200 with stats table", resp3.StatusCode)
	}
	if resp3.Header.Get("ETag") == etag {
		t.Error("dashboard ETag did not advance past a commit")
	}
}

// TestReplicaServesSearch: a follower keeps its text index from what it
// applies (a snapshot resync, then replicated frames), so a replica portal
// answers /api/search and /api/search/export with the primary's hits.
func TestReplicaServesSearch(t *testing.T) {
	fx := newFixture(t)
	create := func(name string) int64 {
		var out struct{ IDs []int64 }
		code := fx.call(t, "alice", "POST", "/api/samples", map[string]any{
			"Sample": model.Sample{Name: name, Project: fx.project},
		}, &out)
		if code != http.StatusCreated || len(out.IDs) != 1 {
			t.Fatalf("create %s: %d %+v", name, code, out)
		}
		return out.IDs[0]
	}
	early := create("replica-early")

	// The follower joins by snapshot resync, then applies every later
	// commit as a replicated frame.
	fsys := core.MustNew(core.Options{})
	fsys.Store.SetReplica(true)
	var snap bytes.Buffer
	_, write := fx.sys.Store.PinnedSnapshot()
	if err := write(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Store.ResetFromSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	sub, err := fx.sys.Store.SubscribeCommits(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	late := create("replica-late")
	for fsys.Store.CommitSeq() < fx.sys.Store.CommitSeq() {
		if _, err := fsys.Store.ApplyReplicated((<-sub.C).Payload); err != nil {
			t.Fatal(err)
		}
	}

	replica := httptest.NewServer(NewWithConfig(fsys, Config{
		ReplicaStatus: func() any { return map[string]any{"lag": 0} },
	}))
	defer replica.Close()
	body, _ := json.Marshal(map[string]string{"Login": "alice", "Password": "alice-pw"})
	resp, err := http.Post(replica.URL+"/api/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var session map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&session)
	resp.Body.Close()

	get := func(base, token, path string) (int, string) {
		req, _ := http.NewRequest("GET", base+path, nil)
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	for name, id := range map[string]int64{"replica-early": early, "replica-late": late} {
		code, onReplica := get(replica.URL, session["token"], "/api/search?q="+name)
		_, onPrimary := get(fx.srv.URL, fx.tokens["alice"], "/api/search?q="+name)
		var hits []struct {
			Kind string
			ID   int64
		}
		if err := json.Unmarshal([]byte(onReplica), &hits); code != http.StatusOK || err != nil ||
			len(hits) != 1 || hits[0].Kind != model.KindSample || hits[0].ID != id {
			t.Errorf("search %s on replica: %d %s, want sample %d", name, code, onReplica, id)
		}
		if onReplica != onPrimary {
			t.Errorf("search %s: replica %s, primary %s", name, onReplica, onPrimary)
		}
		code, csv := get(replica.URL, session["token"], "/api/search/export?q="+name)
		if code != http.StatusOK || !strings.Contains(csv, name) {
			t.Errorf("export %s on replica: %d %q", name, code, csv)
		}
	}
}

func TestTaskAuditSummaryEndpoints(t *testing.T) {
	fx := newFixture(t)
	seedGroupedSamples(t, fx)

	var ts struct {
		ByState    map[string]int `json:"by_state"`
		OpenByRole map[string]int `json:"open_by_role"`
		Total      int            `json:"total"`
	}
	if code := fx.call(t, "alice", "GET", "/api/tasks/summary", nil, &ts); code != http.StatusOK {
		t.Fatalf("tasks summary: %d", code)
	}

	var as struct {
		ByTopic map[string]int `json:"by_topic"`
		ByActor map[string]int `json:"by_actor"`
		Total   int            `json:"total"`
	}
	if code := fx.call(t, "alice", "GET", "/api/audit/summary", nil, nil); code != http.StatusForbidden {
		t.Fatalf("audit summary as scientist: %d, want 403", code)
	}
	if code := fx.call(t, "root", "GET", "/api/audit/summary", nil, &as); code != http.StatusOK {
		t.Fatalf("audit summary as admin: %d", code)
	}
	if as.Total <= 0 || len(as.ByTopic) == 0 || as.ByActor["alice"] == 0 {
		t.Errorf("implausible audit summary: %+v", as)
	}
	if as.ByTopic["sample.created"] < 3 {
		t.Errorf("audit summary sample.created = %d, want >= 3", as.ByTopic["sample.created"])
	}
}
