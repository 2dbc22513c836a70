package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/model"
)

// Operation class names, the keys latency percentiles are reported under.
const (
	opBrowse     = "browse"
	opObject     = "object"
	opStats      = "stats"
	opStatsGroup = "stats-group"
	opSearch     = "search"
	opTasks      = "tasks"
	opWrite      = "write"
	// opSwitch is the synthetic failover-outage sample: one observation
	// whose latency is the full kill→promote→re-point wall time.
	opSwitch = "switchover"
)

// failures collects validation failures across workers: the full count
// plus a capped sample of messages for the report.
type failures struct {
	mu   sync.Mutex
	n    int64
	msgs []string
}

const maxFailureMsgs = 25

func (f *failures) add(op, msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < maxFailureMsgs {
		f.msgs = append(f.msgs, op+": "+msg)
	}
}

// stream is one browse cursor chain a worker follows: a fixed kind+filter
// combination whose pages must be consistent (ascending ids, cursor
// resuming strictly after the last examined record).
type stream struct {
	kind    string
	filter  url.Values
	cursor  int64 // next "from", 0 = first page
	prevMax int64 // highest id seen in the current chain
}

// worker drives one authenticated client.
type worker struct {
	id     int
	writer bool
	base   string
	client *http.Client
	token  string
	user   poolUser
	rng    *rand.Rand
	rec    *recorder
	fails  *failures

	streams   []*stream
	etags     map[string]string
	sampleIDs []int64
	wuIDs     []int64

	// writer state
	mySamples []int64
	seq       int
	// samplesOnly restricts a writer to sample creations and records every
	// acknowledged name in acked — the failover scenario's loss ledger:
	// anything the portal acked with 201 must survive the promotion.
	samplesOnly bool
	acked       []string
}

func newWorker(id int, writer bool, base string, rt http.RoundTripper, u poolUser, timeout time.Duration, seed int64, fails *failures) *worker {
	w := &worker{
		id:     id,
		writer: writer,
		base:   base,
		client: &http.Client{Transport: rt, Timeout: timeout},
		user:   u,
		rng:    rand.New(rand.NewSource(seed)),
		rec:    newRecorder(),
		fails:  fails,
		etags:  make(map[string]string),
	}
	for _, kind := range []string{model.KindSample, model.KindExtract, model.KindWorkunit, model.KindDataResource, model.KindProject} {
		w.streams = append(w.streams, &stream{kind: kind, filter: url.Values{}})
	}
	w.streams = append(w.streams,
		&stream{kind: model.KindSample, filter: url.Values{"species": {"Homo sapiens"}}},
		&stream{kind: model.KindWorkunit, filter: url.Values{"state": {model.WorkunitReady}}},
		&stream{kind: model.KindDataResource, filter: url.Values{"format": {"cel"}}},
	)
	return w
}

// request performs one measured HTTP call and validates its status
// against the allowed set. It returns the response body (fully read) and
// the recorded status, or -1 when the transport failed.
func (w *worker) request(op, method, path string, body any, header http.Header, allowed ...int) (int, []byte, http.Header) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			w.fails.add(op, "marshal: "+err.Error())
			return -1, nil, nil
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		w.fails.add(op, "request: "+err.Error())
		return -1, nil, nil
	}
	if w.token != "" {
		req.Header.Set("Authorization", "Bearer "+w.token)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		w.rec.fail(op)
		w.fails.add(op, "transport: "+err.Error())
		return -1, nil, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		w.rec.fail(op)
		w.fails.add(op, "read body: "+err.Error())
		return -1, nil, nil
	}
	ok := false
	for _, a := range allowed {
		if resp.StatusCode == a {
			ok = true
			break
		}
	}
	if !ok {
		w.rec.fail(op)
		snippet := string(data)
		if len(snippet) > 120 {
			snippet = snippet[:120]
		}
		w.fails.add(op, fmt.Sprintf("%s %s: status %d (%s)", method, path, resp.StatusCode, snippet))
		return resp.StatusCode, data, resp.Header
	}
	w.rec.observe(op, elapsed, resp.StatusCode == http.StatusNotModified)
	return resp.StatusCode, data, resp.Header
}

// login authenticates the worker over HTTP; not part of the measured run.
func (w *worker) login() error {
	body, _ := json.Marshal(map[string]string{"Login": w.user.login, "Password": w.user.password})
	resp, err := w.client.Post(w.base+"/api/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("login %s: status %d", w.user.login, resp.StatusCode)
	}
	var out struct{ Token string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Token == "" {
		return fmt.Errorf("login %s: bad token response", w.user.login)
	}
	w.token = out.Token
	return nil
}

// run drives the worker's op loop until the deadline.
func (w *worker) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		if w.writer {
			w.writeOp()
			continue
		}
		switch p := w.rng.Intn(100); {
		case p < 45:
			w.browseOp()
		case p < 63:
			w.objectOp()
		case p < 71:
			w.statsOp()
		case p < 77:
			w.statsGroupOp()
		case p < 87:
			w.searchOp()
		default:
			w.tasksOp()
		}
	}
}

// browsePage is the browse listing response shape the harness validates.
type browsePage struct {
	Items []map[string]any `json:"items"`
	Next  int64            `json:"next"`
	AsOf  uint64           `json:"asOf"`
}

func (w *worker) browseOp() {
	st := w.streams[w.rng.Intn(len(w.streams))]
	q := url.Values{}
	for k, vs := range st.filter {
		q[k] = vs
	}
	const limit = 50
	q.Set("limit", strconv.Itoa(limit))
	if st.cursor > 0 {
		q.Set("from", strconv.FormatInt(st.cursor, 10))
	}
	path := "/api/browse/" + st.kind + "?" + q.Encode()

	// Conditional replay: reuse the page's last known validator half the
	// time. A 304 must come only in reply to an If-None-Match.
	header := http.Header{}
	conditional := false
	if etag, ok := w.etags[path]; ok && w.rng.Intn(2) == 0 {
		header.Set("If-None-Match", etag)
		conditional = true
	}
	status, data, respHeader := w.request(opBrowse, "GET", path, nil, header, http.StatusOK, http.StatusNotModified)
	switch status {
	case http.StatusNotModified:
		if !conditional {
			w.fails.add(opBrowse, path+": 304 without If-None-Match")
		}
		if len(data) != 0 {
			w.fails.add(opBrowse, path+": 304 with non-empty body")
		}
		return
	case http.StatusOK:
	default:
		return
	}
	var page browsePage
	if err := json.Unmarshal(data, &page); err != nil {
		w.fails.add(opBrowse, path+": bad JSON: "+err.Error())
		return
	}
	if page.AsOf == 0 {
		w.fails.add(opBrowse, path+": missing asOf")
	}
	if len(page.Items) > limit {
		w.fails.add(opBrowse, fmt.Sprintf("%s: %d items over limit %d", path, len(page.Items), limit))
	}
	prev := st.cursor - 1
	for _, item := range page.Items {
		idv, ok := item["id"].(float64)
		id := int64(idv)
		if !ok || id <= 0 {
			w.fails.add(opBrowse, path+": item without positive id")
			break
		}
		if id <= prev {
			w.fails.add(opBrowse, fmt.Sprintf("%s: ids not strictly ascending (%d after %d)", path, id, prev))
			break
		}
		if name, ok := item["name"].(string); !ok || name == "" {
			w.fails.add(opBrowse, fmt.Sprintf("%s: item %d without name", path, id))
			break
		}
		prev = id
		switch st.kind {
		case model.KindSample:
			w.sampleIDs = appendCapped(w.sampleIDs, id)
		case model.KindWorkunit:
			w.wuIDs = appendCapped(w.wuIDs, id)
		}
	}
	// Pagination consistency: a follow-up page resumes strictly after
	// everything this chain already examined.
	if st.cursor > 0 && len(page.Items) > 0 && int64(page.Items[0]["id"].(float64)) <= st.prevMax {
		w.fails.add(opBrowse, fmt.Sprintf("%s: page overlaps previous (id %v <= %d)", path, page.Items[0]["id"], st.prevMax))
	}
	if prev > st.prevMax {
		st.prevMax = prev
	}
	if page.Next != 0 && page.Next <= st.cursor {
		w.fails.add(opBrowse, fmt.Sprintf("%s: cursor does not advance (next %d from %d)", path, page.Next, st.cursor))
	}
	st.cursor = page.Next
	if st.cursor == 0 {
		st.prevMax = 0
	}
	if etag := respHeader.Get("ETag"); etag != "" {
		w.etags[path] = etag
	}
}

func appendCapped(ids []int64, id int64) []int64 {
	const cap = 512
	if len(ids) < cap {
		return append(ids, id)
	}
	ids[int(id)%cap] = id
	return ids
}

func (w *worker) objectOp() {
	switch {
	case len(w.sampleIDs) > 0 && w.rng.Intn(2) == 0:
		id := w.sampleIDs[w.rng.Intn(len(w.sampleIDs))]
		path := fmt.Sprintf("/api/samples/%d", id)
		status, data, _ := w.request(opObject, "GET", path, nil, nil, http.StatusOK)
		if status != http.StatusOK {
			return
		}
		var sm model.Sample
		if err := json.Unmarshal(data, &sm); err != nil || sm.ID != id {
			w.fails.add(opObject, fmt.Sprintf("%s: bad sample body (id %d)", path, sm.ID))
		}
	case len(w.wuIDs) > 0:
		id := w.wuIDs[w.rng.Intn(len(w.wuIDs))]
		path := fmt.Sprintf("/api/workunits/%d", id)
		status, data, _ := w.request(opObject, "GET", path, nil, nil, http.StatusOK)
		if status != http.StatusOK {
			return
		}
		var out struct {
			Workunit  model.Workunit
			Resources []model.DataResource
		}
		if err := json.Unmarshal(data, &out); err != nil || out.Workunit.ID != id {
			w.fails.add(opObject, fmt.Sprintf("%s: bad workunit body (id %d)", path, out.Workunit.ID))
		}
	default:
		// Nothing browsed yet in this worker's scope: browse instead.
		w.browseOp()
	}
}

func (w *worker) statsOp() {
	const path = "/api/stats"
	header := http.Header{}
	conditional := false
	if etag, ok := w.etags[path]; ok && w.rng.Intn(2) == 0 {
		header.Set("If-None-Match", etag)
		conditional = true
	}
	status, data, respHeader := w.request(opStats, "GET", path, nil, header, http.StatusOK, http.StatusNotModified)
	switch status {
	case http.StatusNotModified:
		if !conditional {
			w.fails.add(opStats, "304 without If-None-Match")
		}
		if len(data) != 0 {
			w.fails.add(opStats, "304 with non-empty body")
		}
		return
	case http.StatusOK:
	default:
		return
	}
	var st model.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		w.fails.add(opStats, "bad JSON: "+err.Error())
		return
	}
	if st.Users <= 0 || st.Projects <= 0 {
		w.fails.add(opStats, fmt.Sprintf("implausible stats %+v", st))
	}
	if etag := respHeader.Get("ETag"); etag != "" {
		w.etags[path] = etag
	}
}

// statsGroupOp polls the grouped live-count endpoint the way a dashboard
// widget would: rotating over a few kind/field pairs, replaying the last
// validator half the time, and sanity-checking the histogram it gets
// back.
func (w *worker) statsGroupOp() {
	pairs := [...][2]string{
		{model.KindWorkunit, "state"},
		{model.KindSample, "species"},
		{model.KindDataResource, "format"},
	}
	pair := pairs[w.rng.Intn(len(pairs))]
	path := "/api/stats/" + pair[0] + "?by=" + pair[1]
	header := http.Header{}
	conditional := false
	if etag, ok := w.etags[path]; ok && w.rng.Intn(2) == 0 {
		header.Set("If-None-Match", etag)
		conditional = true
	}
	status, data, respHeader := w.request(opStatsGroup, "GET", path, nil, header, http.StatusOK, http.StatusNotModified)
	switch status {
	case http.StatusNotModified:
		if !conditional {
			w.fails.add(opStatsGroup, path+": 304 without If-None-Match")
		}
		if len(data) != 0 {
			w.fails.add(opStatsGroup, path+": 304 with non-empty body")
		}
		return
	case http.StatusOK:
	default:
		return
	}
	var out struct {
		Kind   string `json:"kind"`
		By     string `json:"by"`
		Groups []struct {
			Key   any `json:"key"`
			Count int `json:"count"`
		} `json:"groups"`
		AsOf uint64 `json:"asOf"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		w.fails.add(opStatsGroup, path+": bad JSON: "+err.Error())
		return
	}
	if out.Kind != pair[0] || out.By != pair[1] || out.AsOf == 0 {
		w.fails.add(opStatsGroup, path+": wrong kind/by/asOf in body")
		return
	}
	if len(out.Groups) == 0 {
		w.fails.add(opStatsGroup, path+": empty histogram over populated table")
		return
	}
	for _, g := range out.Groups {
		if g.Count < 1 {
			w.fails.add(opStatsGroup, fmt.Sprintf("%s: group %v with non-positive count %d", path, g.Key, g.Count))
			break
		}
		if s, ok := g.Key.(string); ok && s == "" {
			w.fails.add(opStatsGroup, path+": group with empty key")
			break
		}
	}
	if etag := respHeader.Get("ETag"); etag != "" {
		w.etags[path] = etag
	}
}

func (w *worker) searchOp() {
	q := fmt.Sprintf("sample-%05d", 1+w.rng.Intn(256))
	path := "/api/search?q=" + url.QueryEscape(q)
	status, data, _ := w.request(opSearch, "GET", path, nil, nil, http.StatusOK)
	if status != http.StatusOK {
		return
	}
	var hits []struct {
		Kind  string
		ID    int64
		Score float64
	}
	if err := json.Unmarshal(data, &hits); err != nil {
		w.fails.add(opSearch, path+": bad JSON: "+err.Error())
		return
	}
	// Primary and replicas answer from their own copy of the store's text
	// index; both must return well-formed hits ranked by score.
	for i, h := range hits {
		if h.Kind == "" || h.ID <= 0 || h.Score <= 0 {
			w.fails.add(opSearch, path+": hit without kind/id/score")
			break
		}
		if i > 0 && h.Score > hits[i-1].Score {
			w.fails.add(opSearch, path+": hits not ranked by score")
			break
		}
	}
}

func (w *worker) tasksOp() {
	status, data, _ := w.request(opTasks, "GET", "/api/tasks", nil, nil, http.StatusOK)
	if status != http.StatusOK {
		return
	}
	var tasks []map[string]any
	if err := json.Unmarshal(data, &tasks); err != nil {
		w.fails.add(opTasks, "bad JSON: "+err.Error())
	}
}

func (w *worker) writeOp() {
	w.seq++
	if w.samplesOnly {
		w.createSampleOp()
		return
	}
	switch p := w.rng.Intn(100); {
	case p < 50 || len(w.mySamples) == 0:
		w.createSampleOp()
	case p < 80:
		name := fmt.Sprintf("bench-%s-e%06d", w.user.login, w.seq)
		status, data, _ := w.request(opWrite, "POST", "/api/extracts", map[string]any{
			"Extract": model.Extract{
				Name: name, Sample: w.mySamples[w.rng.Intn(len(w.mySamples))],
				ExtractionMethod: "TRIzol", Label: "Cy3",
			},
		}, nil, http.StatusCreated)
		if status != http.StatusCreated {
			return
		}
		var out struct{ IDs []int64 }
		if err := json.Unmarshal(data, &out); err != nil || len(out.IDs) != 1 {
			w.fails.add(opWrite, "create extract: bad ids body")
		}
	default:
		// Freshly coined annotation values; duplicates (409) are allowed —
		// two writers can legitimately coin the same trimmed value.
		value := fmt.Sprintf("bench-%s-t%06d", w.user.login, w.seq)
		w.request(opWrite, "POST", "/api/annotations", map[string]string{
			"Vocabulary": model.VocabTreatment, "Value": value,
		}, nil, http.StatusCreated, http.StatusConflict)
	}
}

// createSampleOp registers one uniquely named sample and remembers the
// acknowledgement when the worker keeps a loss ledger.
func (w *worker) createSampleOp() {
	name := fmt.Sprintf("bench-%s-s%06d", w.user.login, w.seq)
	status, data, _ := w.request(opWrite, "POST", "/api/samples", map[string]any{
		"Sample": model.Sample{
			Name: name, Project: w.user.project,
			Species: "Homo sapiens", Tissue: "Liver",
		},
	}, nil, http.StatusCreated)
	if status != http.StatusCreated {
		return
	}
	var out struct{ IDs []int64 }
	if err := json.Unmarshal(data, &out); err != nil || len(out.IDs) != 1 || out.IDs[0] <= 0 {
		w.fails.add(opWrite, "create sample: bad ids body")
		return
	}
	w.mySamples = appendCapped(w.mySamples, out.IDs[0])
	if w.samplesOnly {
		w.acked = append(w.acked, name)
	}
}

// drive logs the pool in and runs every worker until the deadline,
// merging per-worker recordings into the final report. Readers are
// assigned round-robin over readerBases (one entry per serving instance:
// just the primary, or the replica portals); writers always target
// writerBase. A worker sticks to its instance for its whole run, so every
// consistency check (cursor chains, ETag replays) observes one
// monotonically advancing store.
func drive(cfg Config, readerBases []string, writerBase string, users []poolUser) (*Report, error) {
	transport := &http.Transport{
		MaxIdleConns:        cfg.Clients + cfg.Writers + 8,
		MaxIdleConnsPerHost: cfg.Clients + cfg.Writers + 8,
	}
	defer transport.CloseIdleConnections()
	fails := &failures{}
	workers := make([]*worker, 0, cfg.Clients+cfg.Writers)
	for i := 0; i < cfg.Clients+cfg.Writers; i++ {
		isWriter := i >= cfg.Clients
		base := writerBase
		if !isWriter {
			base = readerBases[i%len(readerBases)]
		}
		w := newWorker(i, isWriter, base, transport, users[i], cfg.Timeout, cfg.Seed+int64(i)*7919, fails)
		if err := w.login(); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		workers = append(workers, w)
	}
	cfg.logf("%d readers + %d writers logged in; driving for %v", cfg.Clients, cfg.Writers, cfg.Duration)

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(deadline)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	recs := make([]*recorder, len(workers))
	for i, w := range workers {
		recs[i] = w.rec
	}
	report := buildReport(cfg, elapsed, recs, fails)
	return report, nil
}
