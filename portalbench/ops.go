package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// opClass is the class a request's latency is reported under.
type opClass uint8

const (
	opBrowse opClass = iota // paginated listings, /api/browse/{kind}
	opLookup                // object GETs, neighbours, stats, tasks
	opSearch                // /api/search
	opWrite                 // sample/extract/annotation registrations
	numOps
)

var opNames = [numOps]string{"browse", "lookup", "search", "write"}

func (o opClass) String() string { return opNames[o] }

// rng is a splitmix64 generator: a per-call source that costs nothing to
// seed, so every call's choices derive from (run seed, call index).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stream is one browse cursor chain: a kind+filter whose pages must be
// consistent (ascending ids, cursor resuming after the last examined row).
type stream struct {
	kind     string
	filter   url.Values
	filtered bool
	cursor   int64
	prevMax  int64
}

// session is one logged-in genload user and its client-side state.
type session struct {
	user     manifestUser
	scoped   bool // a scientist: project scope hides foreign rows
	projects map[int64]bool
	token    string // primary session
	rtoken   string // follower session (replica workload)

	mu        sync.Mutex
	streams   []*stream
	etags     map[string]string
	seen      map[string][]int64 // kind -> ids this user browsed
	mySamples []int64
	hits      []int64 // sample ids from this user's search hits
	seq       int
}

func (s *session) remember(list *[]int64, id int64) {
	const keep = 256
	if len(*list) < keep {
		*list = append(*list, id)
		return
	}
	(*list)[int(id)%keep] = id
}

// failures collects validation failures: the count plus a capped sample
// of messages for the run's report.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(op opClass, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, op.String()+": "+fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// counters are the client-side layer counts of a phase.
type counters struct {
	foreignHits    atomic.Int64 // rows a scientist got from projects they are not in
	examined       [2]atomic.Int64
	returned       [2]atomic.Int64 // [scoped]; unfiltered listings with next != 0
	notModified    atomic.Int64
	conditional    atomic.Int64
	writesAcked    atomic.Int64
	lastSearchMark atomic.Int64
	dirtyMu        sync.Mutex
	dirty          dist // writes since the previous search, per search
	visibleMu      sync.Mutex
	visible        dist // replica: primary 201 -> readable on the follower, ms
	inputsMu       sync.Mutex
	browseInputs   []browseInput // recorded for the layer replays
	searchInputs   []searchInput
}

// maxInputs caps the recorded replay inputs per kind.
const maxInputs = 400

func (c *counters) recordBrowse(in browseInput) {
	c.inputsMu.Lock()
	if len(c.browseInputs) < maxInputs {
		c.browseInputs = append(c.browseInputs, in)
	}
	c.inputsMu.Unlock()
}

func (c *counters) recordSearch(in searchInput) {
	c.inputsMu.Lock()
	if len(c.searchInputs) < maxInputs {
		c.searchInputs = append(c.searchInputs, in)
	}
	c.inputsMu.Unlock()
}

// target is one server the client talks to, with one connection per
// worker.
type target struct {
	base    string
	clients []*http.Client
}

func newTarget(base string, workers int) *target {
	t := &target{base: base}
	for i := 0; i < workers; i++ {
		t.clients = append(t.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return t
}

func (t *target) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

// client carries everything the operations need.
type client struct {
	wl        *workload
	m         *manifest
	seed      int64
	sessions  []*session
	primary   *target
	follower  *target // replica workload: browse and lookup go here
	ledger    *ledger
	fails     *failures
	cnt       *counters
	phaseName string
	probe     chan probeReq // replica: acked samples to probe on the follower
}

// reader returns the target and token reads of session s go to.
func (c *client) reader(s *session) (*target, string) {
	if c.follower != nil {
		return c.follower, s.rtoken
	}
	return c.primary, s.token
}

// request sends one HTTP request and reads the body. It returns status
// -1 on transport failure (already counted as a failure).
func (c *client) request(t *target, w int, op opClass, rid, token, method, path string, body any, hdr http.Header, rec *callRecord) (int, []byte, http.Header) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.fails.add(op, "marshal: %v", err)
			return -1, nil, nil
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		c.fails.add(op, "request: %v", err)
		return -1, nil, nil
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	req.Header.Set(requestIDHeader, rid)
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if rec != nil {
		rec.start = time.Now()
	}
	resp, err := t.clients[w].Do(req)
	if err != nil {
		c.fails.add(op, "%s %s: transport: %v", method, path, err)
		return -1, nil, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.fails.add(op, "%s %s: read body: %v", method, path, err)
		return -1, nil, nil
	}
	return resp.StatusCode, data, resp.Header
}

// allowed validates a status against the op's allowed set.
func (c *client) allowed(op opClass, path string, status int, data []byte, ok ...int) bool {
	if status < 0 {
		return false
	}
	for _, s := range ok {
		if status == s {
			return true
		}
	}
	snippet := string(data)
	if len(snippet) > 120 {
		snippet = snippet[:120]
	}
	c.fails.add(op, "%s: status %d (%s)", path, status, snippet)
	return false
}

// conditional handles the 304 rules shared by every validator-carrying
// endpoint: a 304 only in reply to If-None-Match, and with no body.
// It returns true when the caller should stop (304 or bad status).
func (c *client) conditional(op opClass, path string, sentINM bool, status int, data []byte) (stop, okResp bool) {
	if sentINM {
		c.cnt.conditional.Add(1)
	}
	if status == http.StatusNotModified {
		c.cnt.notModified.Add(1)
		if !sentINM {
			c.fails.add(op, "%s: 304 without If-None-Match", path)
			return true, false
		}
		if len(data) != 0 {
			c.fails.add(op, "%s: 304 with a body", path)
			return true, false
		}
		return true, true
	}
	return false, true
}

// do runs scheduled call i and validates the response; rec.ok reports a
// valid, allowed answer.
func (c *client) do(w, i int, sc *scheduled, rec *callRecord) {
	s := c.sessions[sc.session]
	r := &rng{s: uint64(c.seed)*0x100000001b3 ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(sc.op)}
	rid := c.phaseName + ":" + strconv.Itoa(i)
	rec.op = sc.op
	rec.scoped = s.scoped
	var ok bool
	switch sc.op {
	case opBrowse:
		ok = c.browse(w, rid, s, r, rec)
	case opLookup:
		ok = c.lookup(w, rid, s, r, rec)
	case opSearch:
		ok = c.search(w, rid, s, r, rec)
	case opWrite:
		ok = c.write(w, rid, s, r, rec)
	}
	rec.end = time.Now()
	rec.ok = ok
}

// browsePage is the listing shape the client validates.
type browsePage struct {
	Items []browseItem `json:"items"`
	Next  int64        `json:"next"`
	AsOf  uint64       `json:"asOf"`
}

type browseItem struct {
	ID       int64  `json:"id"`
	Name     string `json:"name"`
	Project  int64  `json:"project"`
	Sample   int64  `json:"sample"`
	Workunit int64  `json:"workunit"`
}

const browseLimit = 50

func (c *client) browse(w int, rid string, s *session, r *rng, rec *callRecord) bool {
	s.mu.Lock()
	st := s.streams[r.intn(len(s.streams))]
	q := url.Values{}
	for k, vs := range st.filter {
		q[k] = vs
	}
	q.Set("limit", strconv.Itoa(browseLimit))
	from := st.cursor
	if from > 0 {
		q.Set("from", strconv.FormatInt(from, 10))
	}
	path := "/api/browse/" + st.kind + "?" + q.Encode()
	hdr := http.Header{}
	sentINM := false
	if etag, ok := s.etags[path]; ok && r.intn(2) == 0 {
		hdr.Set("If-None-Match", etag)
		sentINM = true
	}
	prevMax := st.prevMax
	s.mu.Unlock()

	t, token := c.reader(s)
	status, data, respHdr := c.request(t, w, opBrowse, rid, token, "GET", path, nil, hdr, rec)
	if !c.allowed(opBrowse, path, status, data, http.StatusOK, http.StatusNotModified) {
		return false
	}
	if stop, ok := c.conditional(opBrowse, path, sentINM, status, data); stop {
		return ok
	}
	var page browsePage
	if err := json.Unmarshal(data, &page); err != nil {
		c.fails.add(opBrowse, "%s: bad JSON: %v", path, err)
		return false
	}
	if page.AsOf == 0 {
		c.fails.add(opBrowse, "%s: missing asOf", path)
		return false
	}
	if len(page.Items) > browseLimit {
		c.fails.add(opBrowse, "%s: %d items over limit %d", path, len(page.Items), browseLimit)
		return false
	}
	prev := from - 1
	for _, it := range page.Items {
		if it.ID <= 0 || it.ID <= prev {
			c.fails.add(opBrowse, "%s: ids not strictly ascending (%d after %d)", path, it.ID, prev)
			return false
		}
		if it.Name == "" {
			c.fails.add(opBrowse, "%s: item %d without name", path, it.ID)
			return false
		}
		prev = it.ID
		if s.scoped && c.foreign(s, st.kind, it) {
			c.cnt.foreignHits.Add(1)
		}
	}
	if from > 0 && len(page.Items) > 0 && page.Items[0].ID <= prevMax {
		c.fails.add(opBrowse, "%s: page overlaps the previous one (id %d <= %d)", path, page.Items[0].ID, prevMax)
		return false
	}
	if page.Next != 0 && page.Next <= from {
		c.fails.add(opBrowse, "%s: cursor does not advance (next %d from %d)", path, page.Next, from)
		return false
	}
	in := browseInput{Login: s.user.Login, Kind: st.kind, From: from, Next: page.Next}
	for k, vs := range st.filter {
		in.Filter = append(in.Filter, filterArg{Field: k, Value: vs[0]})
	}
	c.cnt.recordBrowse(in)
	if !st.filtered {
		// The cursor span is the rows the page examined; a last page
		// (next == 0) examined everything up to the table's end.
		first, end := max(from, 1), page.Next
		if end == 0 {
			end = c.lastID(st.kind) + 1
		}
		k := 0
		if s.scoped {
			k = 1
		}
		if end > first {
			c.cnt.examined[k].Add(end - first)
			c.cnt.returned[k].Add(int64(len(page.Items)))
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if st.cursor == from { // another call of this chain may have moved it
		st.cursor = page.Next
		if prev > st.prevMax {
			st.prevMax = prev
		}
		if st.cursor == 0 {
			st.prevMax = 0
		}
	}
	if etag := respHdr.Get("ETag"); etag != "" {
		s.etags[path] = etag
	}
	if st.kind == model.KindSample || st.kind == model.KindWorkunit {
		list := s.seen[st.kind]
		for _, it := range page.Items {
			s.remember(&list, it.ID)
		}
		s.seen[st.kind] = list
	}
	return true
}

// lastID is the highest id of kind the client knows of: the
// population's, or the latest this run registered.
func (c *client) lastID(kind string) int64 {
	var n int64
	switch kind {
	case model.KindSample:
		n = int64(len(c.m.SampleProject) - 1)
	case model.KindExtract:
		n = int64(len(c.m.ExtractSample) - 1)
	case model.KindWorkunit:
		n = int64(len(c.m.WorkunitProject) - 1)
	case model.KindDataResource:
		n = int64(len(c.m.ResourceWorkunit) - 1)
	case model.KindProject:
		n = int64(c.m.Projects)
	}
	_, hi := c.ledger.idRange(kind)
	return max(n, hi)
}

// foreign reports whether a listed row belongs to a project the
// scientist is not a member of. Rows the fixture does not know (created
// during the run) are resolved through the ledger, or skipped.
func (c *client) foreign(s *session, kind string, it browseItem) bool {
	var p int64
	switch kind {
	case model.KindSample:
		p = it.Project
	case model.KindWorkunit:
		p = it.Project
	case model.KindProject:
		p = it.ID
	case model.KindExtract:
		p = c.m.projectOf(model.KindSample, it.Sample)
		if p == 0 {
			p, _ = c.ledger.sampleProject(it.Sample)
		}
	case model.KindDataResource:
		p = c.m.projectOf(model.KindWorkunit, it.Workunit)
	}
	return p > 0 && !s.projects[p]
}

// lookup is one of the cheap reads a portal page makes: an object GET,
// the link-graph neighbours of a search hit, the stats dashboard or the
// task list.
func (c *client) lookup(w int, rid string, s *session, r *rng, rec *callRecord) bool {
	t, token := c.reader(s)
	s.mu.Lock()
	samples, wus, hits := s.seen[model.KindSample], s.seen[model.KindWorkunit], s.hits
	var sampleID, wuID, hitID int64
	if len(samples) > 0 {
		sampleID = samples[r.intn(len(samples))]
	}
	if len(wus) > 0 {
		wuID = wus[r.intn(len(wus))]
	}
	if len(hits) > 0 {
		hitID = hits[r.intn(len(hits))]
	}
	s.mu.Unlock()

	switch pick := r.intn(10); {
	case pick < 3 && sampleID > 0:
		path := "/api/samples/" + strconv.FormatInt(sampleID, 10)
		status, data, _ := c.request(t, w, opLookup, rid, token, "GET", path, nil, nil, rec)
		if !c.allowed(opLookup, path, status, data, http.StatusOK) {
			return false
		}
		var sm struct{ ID int64 }
		if err := json.Unmarshal(data, &sm); err != nil || sm.ID != sampleID {
			c.fails.add(opLookup, "%s: bad sample body", path)
			return false
		}
		return true
	case pick < 5 && wuID > 0:
		path := "/api/workunits/" + strconv.FormatInt(wuID, 10)
		status, data, _ := c.request(t, w, opLookup, rid, token, "GET", path, nil, nil, rec)
		if !c.allowed(opLookup, path, status, data, http.StatusOK) {
			return false
		}
		var out struct{ Workunit struct{ ID int64 } }
		if err := json.Unmarshal(data, &out); err != nil || out.Workunit.ID != wuID {
			c.fails.add(opLookup, "%s: bad workunit body", path)
			return false
		}
		return true
	case pick < 6 && hitID > 0:
		// The object graph of a search hit, as the portal links it. A
		// scientist's hit from another project may be refused instead.
		path := "/api/browse/sample/" + strconv.FormatInt(hitID, 10)
		foreign := s.scoped && c.foreignSample(s, hitID)
		status, data, _ := c.request(t, w, opLookup, rid, token, "GET", path, nil, nil, rec)
		if foreign && (status == http.StatusForbidden || status == http.StatusNotFound) {
			return true
		}
		if !c.allowed(opLookup, path, status, data, http.StatusOK) {
			return false
		}
		var out struct{ Outgoing, Incoming []json.RawMessage }
		if err := json.Unmarshal(data, &out); err != nil {
			c.fails.add(opLookup, "%s: bad JSON: %v", path, err)
			return false
		}
		if foreign {
			c.cnt.foreignHits.Add(int64(len(out.Outgoing) + len(out.Incoming)))
		}
		return true
	case pick < 8:
		return c.stats(t, w, rid, token, s, r, rec)
	default:
		path := "/api/tasks"
		status, data, _ := c.request(t, w, opLookup, rid, token, "GET", path, nil, nil, rec)
		if !c.allowed(opLookup, path, status, data, http.StatusOK) {
			return false
		}
		var ts []json.RawMessage
		if err := json.Unmarshal(data, &ts); err != nil {
			c.fails.add(opLookup, "%s: bad JSON: %v", path, err)
			return false
		}
		return true
	}
}

func (c *client) foreignSample(s *session, id int64) bool {
	p := c.m.projectOf(model.KindSample, id)
	if p == 0 {
		p, _ = c.ledger.sampleProject(id)
	}
	return p > 0 && !s.projects[p]
}

var statsGroups = [...][2]string{
	{model.KindWorkunit, "state"},
	{model.KindSample, "species"},
	{model.KindDataResource, "format"},
}

func (c *client) stats(t *target, w int, rid, token string, s *session, r *rng, rec *callRecord) bool {
	path := "/api/stats"
	grouped := r.intn(2) == 0
	var pair [2]string
	if grouped {
		pair = statsGroups[r.intn(len(statsGroups))]
		path = "/api/stats/" + pair[0] + "?by=" + pair[1]
	}
	hdr := http.Header{}
	s.mu.Lock()
	etag, known := s.etags[path]
	s.mu.Unlock()
	sentINM := known && r.intn(2) == 0
	if sentINM {
		hdr.Set("If-None-Match", etag)
	}
	status, data, respHdr := c.request(t, w, opLookup, rid, token, "GET", path, nil, hdr, rec)
	if !c.allowed(opLookup, path, status, data, http.StatusOK, http.StatusNotModified) {
		return false
	}
	if stop, ok := c.conditional(opLookup, path, sentINM, status, data); stop {
		return ok
	}
	if grouped {
		var out struct {
			Kind   string `json:"kind"`
			By     string `json:"by"`
			Groups []struct {
				Count int `json:"count"`
			} `json:"groups"`
			AsOf uint64 `json:"asOf"`
		}
		if err := json.Unmarshal(data, &out); err != nil || out.Kind != pair[0] || out.By != pair[1] || out.AsOf == 0 || len(out.Groups) == 0 {
			c.fails.add(opLookup, "%s: bad grouped stats body", path)
			return false
		}
		for _, g := range out.Groups {
			if g.Count < 1 {
				c.fails.add(opLookup, "%s: group with count %d", path, g.Count)
				return false
			}
		}
	} else {
		var st model.Stats
		if err := json.Unmarshal(data, &st); err != nil || st.Users <= 0 || st.Projects <= 0 {
			c.fails.add(opLookup, "%s: implausible stats", path)
			return false
		}
	}
	if etag := respHdr.Get("ETag"); etag != "" {
		s.mu.Lock()
		s.etags[path] = etag
		s.mu.Unlock()
	}
	return true
}

// search looks up a sample by its exact name: an existing population
// sample, or on ingest one this run just registered. The hit list must
// contain that sample whenever the caller may see it — search follows
// writes. A scientist searching another project's sample may get the hit
// (the scope leak, counted in foreignHits) or not: both are valid.
func (c *client) search(w int, rid string, s *session, r *rng, rec *callRecord) bool {
	var id int64
	var name string
	if c.wl.searchOwn {
		if a, ok := c.ledger.recentSample(r.intn); ok {
			id, name = a.ID, a.Name
		}
	}
	if id == 0 {
		id = 1 + int64(r.intn(len(c.m.SampleName)-1))
		name = c.m.SampleName[id]
	}
	path := "/api/search?q=" + url.QueryEscape(name)
	acked := c.cnt.writesAcked.Load()
	mark := c.cnt.lastSearchMark.Swap(acked)
	c.cnt.dirtyMu.Lock()
	c.cnt.dirty.add(float64(acked - mark))
	c.cnt.dirtyMu.Unlock()

	status, data, _ := c.request(c.primary, w, opSearch, rid, s.token, "GET", path, nil, nil, rec)
	if !c.allowed(opSearch, path, status, data, http.StatusOK) {
		return false
	}
	var hits []struct {
		Kind string
		ID   int64
	}
	if err := json.Unmarshal(data, &hits); err != nil {
		c.fails.add(opSearch, "%s: bad JSON: %v", path, err)
		return false
	}
	found := false
	for _, h := range hits {
		if h.Kind == "" || h.ID <= 0 {
			c.fails.add(opSearch, "%s: hit without kind/id", path)
			return false
		}
		if h.Kind == model.KindSample && h.ID == id {
			found = true
		}
		if h.Kind == model.KindSample && s.scoped && c.foreignSample(s, h.ID) {
			c.cnt.foreignHits.Add(1)
		}
	}
	if !found {
		if !(s.scoped && c.foreignSample(s, id)) {
			c.fails.add(opSearch, "%s: sample %d missing from %d hits", path, id, len(hits))
			return false
		}
		c.cnt.recordSearch(searchInput{Login: s.user.Login, Q: name})
		return true
	}
	c.cnt.recordSearch(searchInput{Login: s.user.Login, Q: name})
	s.mu.Lock()
	s.remember(&s.hits, id)
	s.mu.Unlock()
	return true
}

// write registers a sample (50%), an extract of one of the session's own
// samples (30%) or a new annotation term (20%) on the primary.
func (c *client) write(w int, rid string, s *session, r *rng, rec *callRecord) bool {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	var ownSample int64
	if len(s.mySamples) > 0 {
		ownSample = s.mySamples[r.intn(len(s.mySamples))]
	}
	s.mu.Unlock()
	prefix := fmt.Sprintf("pb%d-%s-%s", c.seed, c.phaseName, s.user.Login)

	switch p := r.intn(10); {
	case p < 5 || (p < 8 && ownSample == 0):
		project := c.writeProject(s, r)
		name := fmt.Sprintf("%s-s%05d", prefix, seq)
		body := map[string]any{"Sample": map[string]any{
			"Name": name, "Project": project, "Species": "Homo sapiens", "Tissue": "Liver",
		}}
		status, data, _ := c.request(c.primary, w, opWrite, rid, s.token, "POST", "/api/samples", body, nil, rec)
		if !c.allowed(opWrite, "/api/samples", status, data, http.StatusCreated) {
			return false
		}
		id, ok := c.createdID(data)
		if !ok {
			return false
		}
		a := ack{Kind: "sample", ID: id, Name: name, Project: project}
		c.ledger.add(a)
		c.cnt.writesAcked.Add(1)
		s.mu.Lock()
		s.remember(&s.mySamples, id)
		s.mu.Unlock()
		if c.probe != nil {
			select {
			case c.probe <- probeReq{id: id, acked: time.Now()}:
			default: // probe busy: this write is not sampled
			}
		}
		return true
	case p < 8:
		name := fmt.Sprintf("%s-e%05d", prefix, seq)
		body := map[string]any{"Extract": map[string]any{
			"Name": name, "Sample": ownSample, "ExtractionMethod": "TRIzol", "Label": "Cy3",
		}}
		status, data, _ := c.request(c.primary, w, opWrite, rid, s.token, "POST", "/api/extracts", body, nil, rec)
		if !c.allowed(opWrite, "/api/extracts", status, data, http.StatusCreated) {
			return false
		}
		id, ok := c.createdID(data)
		if !ok {
			return false
		}
		c.ledger.add(ack{Kind: "extract", ID: id, Name: name})
		c.cnt.writesAcked.Add(1)
		return true
	default:
		value := fmt.Sprintf("%s-t%05d", prefix, seq)
		body := map[string]string{"Vocabulary": model.VocabTreatment, "Value": value}
		status, data, _ := c.request(c.primary, w, opWrite, rid, s.token, "POST", "/api/annotations", body, nil, rec)
		if !c.allowed(opWrite, "/api/annotations", status, data, http.StatusCreated) {
			return false
		}
		var out struct{ Term struct{ ID int64 } }
		if err := json.Unmarshal(data, &out); err != nil || out.Term.ID <= 0 {
			c.fails.add(opWrite, "create annotation: bad term body")
			return false
		}
		c.ledger.add(ack{Kind: "annotation", ID: out.Term.ID, Name: value})
		c.cnt.writesAcked.Add(1)
		return true
	}
}

// writeProject picks the project a session registers into: one of a
// scientist's own, any project for experts and admins.
func (c *client) writeProject(s *session, r *rng) int64 {
	if s.scoped {
		return s.user.Projects[r.intn(len(s.user.Projects))]
	}
	return 1 + int64(r.intn(c.m.Projects))
}

func (c *client) createdID(data []byte) (int64, bool) {
	var out struct{ IDs []int64 }
	if err := json.Unmarshal(data, &out); err != nil || len(out.IDs) != 1 || out.IDs[0] <= 0 {
		c.fails.add(opWrite, "create: bad ids body %.80s", data)
		return 0, false
	}
	return out.IDs[0], true
}
