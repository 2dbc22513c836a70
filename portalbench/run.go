package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/model"
)

// Run settings. Both processes share the machine's cores: the server runs
// with the Go default GOMAXPROCS (all cores) and the generator with
// genProcs; the generator never has more than workers requests in flight.
const (
	workers      = 2
	genProcs     = 2
	setupRepeats = 3   // setup_s is the median of this many boots
	stepSeconds  = 2.0 // length of one capacity-sweep step
	// lateBound rejects a run whose generator fell this far behind its
	// own schedule: its latencies would describe the client.
	lateBound = 100 * time.Millisecond
	// missedMS stands in for the latency of a failed or unsent request:
	// it misses every limit and sorts after every real sample.
	missedMS = 1e9
)

type runConfig struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	bfabric string
	work    string
}

// env is one benchmark invocation's state.
type env struct {
	cfg      runConfig
	self     string
	fixture  string
	m        *manifest
	runDir   string
	sessions []*session
	ledger   *ledger
	fails    *failures
	problems []string // reasons the run is not correct
	dirs     int
	metrics  map[string]metricValue
	report   []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric records and prints one measured value. A value that could not
// be measured (NaN) is printed but not recorded; resultMetrics reports
// it if BENCHMARK.json lists it.
func (e *env) metric(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.note("%s could not be measured (%s)", name, note)
		return
	}
	e.metrics[name] = metricValue{Value: v, Unit: unit}
	line := fmt.Sprintf("%-40s %14.4f %-6s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	e.report = append(e.report, line)
}

func (e *env) note(format string, args ...any) {
	e.report = append(e.report, "# "+fmt.Sprintf(format, args...))
}

func (e *env) problem(format string, args ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

func run(cfg runConfig) error {
	if cfg.bfabric == "" {
		return errors.New("-bfabric is required (run.sh builds it)")
	}
	if _, err := os.Stat(cfg.bfabric); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	e := &env{cfg: cfg, self: self, ledger: newLedger(), fails: &failures{}, metrics: map[string]metricValue{}}
	if e.fixture, err = ensureFixture(cfg.work, self); err != nil {
		return err
	}
	if e.m, err = loadManifest(filepath.Join(e.fixture, "manifest.json")); err != nil {
		return err
	}
	if e.sessions, err = pickSessions(e.m, cfg.seed); err != nil {
		return err
	}
	for _, s := range e.sessions {
		cfg.wl.initStreams(s)
	}
	if e.runDir, err = os.MkdirTemp(cfg.work, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.runDir)
	removeOnInterrupt(e.runDir)

	attempted := 0
	if cfg.trace {
		attempted, err = e.traced()
	} else {
		attempted, err = e.untraced()
	}
	if err != nil {
		return err
	}

	list := spec.EndToEnd
	if cfg.trace {
		list = spec.PerLayer
	}
	metrics := e.resultMetrics(list)
	failed := e.fails.count()
	if failed > 0 {
		e.problem("%d validation failures", failed)
	}
	e.note("validation failures: %d", failed)
	for _, msg := range e.fails.msgs {
		e.note("  %s", msg)
	}
	for _, p := range e.problems {
		e.note("PROBLEM: %s", p)
	}
	for _, ln := range e.report {
		fmt.Println(ln)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(e.problems) == 0, max(attempted, 1), failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// ensureFixture returns a directory holding the generated population
// (data/ and manifest.json), generating it on first use. It is keyed by
// the hash of this binary, which links the generator and the store under
// test, so a different commit never reuses it.
func ensureFixture(work, self string) (string, error) {
	f, err := os.Open(self)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(work, "fixture-"+hex.EncodeToString(h.Sum(nil))[:16])
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return dir, nil
	}
	tmp, err := os.MkdirTemp(work, "fixture-tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	c, err := startChild("fixture", self, nil, "fixture",
		"-dir", filepath.Join(tmp, "data"), "-manifest", filepath.Join(tmp, "manifest.json"))
	if err != nil {
		return "", err
	}
	<-c.done
	if c.err != nil {
		return "", fmt.Errorf("fixture generation: %v\n%s", c.err, c.tail.String())
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	// Fixtures of earlier builds are never read again.
	stale, _ := filepath.Glob(filepath.Join(work, "fixture-*"))
	for _, old := range stale {
		if old != dir {
			os.RemoveAll(old)
		}
	}
	return dir, nil
}

func (e *env) freshDir(name string) string {
	e.dirs++
	return filepath.Join(e.runDir, fmt.Sprintf("%s-%d", name, e.dirs))
}

// server is one running portal process.
type server struct {
	c        *child
	base     string
	replAddr string
	dataDir  string
	spans    string // traced servers: where spans are written at exit
	args     []string
	bin      string
	env      []string
}

// bootServer starts a server on dataDir: cmd/bfabric, or with traced the
// benchmark's own traced server main. It returns once the server answers
// its health probe.
func (e *env) bootServer(name, dataDir string, traced, replListen bool, replFrom string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://127.0.0.1:" + strconv.Itoa(port), dataDir: dataDir, bin: e.cfg.bfabric}
	s.args = []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-data-dir", dataDir, "-fsync", "always"}
	if replListen {
		rp, err := freePort()
		if err != nil {
			return nil, err
		}
		s.replAddr = "127.0.0.1:" + strconv.Itoa(rp)
		s.args = append(s.args, "-replicate-listen", s.replAddr)
	}
	if replFrom != "" {
		s.args = append(s.args, "-replicate-from", replFrom)
	}
	if traced {
		s.bin = e.self
		s.spans = dataDir + ".spans.json"
		s.args = append([]string{"serve-traced", "-spans", s.spans}, s.args...)
		s.env = []string{"GODEBUG=gctrace=1"}
	}
	return s, s.start(name, replFrom != "")
}

func (s *server) start(name string, replica bool) error {
	c, err := startChild(name, s.bin, s.env, s.args...)
	if err != nil {
		return err
	}
	s.c = c
	probe := "/readyz"
	if replica {
		probe = "/healthz" // a replica's /readyz answers 503 by design
	}
	return waitReady(c, s.base+probe, 60*time.Second)
}

// deployment is the server(s) of one setup.
type deployment struct {
	primary, follower *server
	pt, ft            *target
	reindexS          float64
	catchupS          float64
	setupS            float64
}

func (d *deployment) servers() []*server {
	if d.follower != nil {
		return []*server{d.primary, d.follower}
	}
	return []*server{d.primary}
}

func (d *deployment) kill() {
	for _, s := range d.servers() {
		s.c.kill()
	}
	d.pt.close()
	if d.ft != nil {
		d.ft.close()
	}
}

// setup boots a deployment on a fresh copy of the population and makes it
// ready for timed requests: server exec, snapshot recovery, logins and
// warm-up (the lazy first-query search reindex among it); on replica also
// an empty follower's catch-up. setupS is measured from the first exec.
func (e *env) setup(traced bool) (*deployment, error) {
	dir := e.freshDir("primary")
	if err := copyDir(filepath.Join(e.fixture, "data"), dir); err != nil {
		return nil, err
	}
	d := &deployment{}
	t0 := time.Now()
	var err error
	if d.primary, err = e.bootServer("primary", dir, traced, e.cfg.wl.replica, ""); err != nil {
		return nil, err
	}
	d.pt = newTarget(d.primary.base, workers)
	for _, s := range e.sessions {
		if s.token, err = login(d.primary.base, s.user.Login); err != nil {
			d.kill()
			return nil, err
		}
	}
	// Warm-up: the first search builds the index lazily.
	ts := time.Now()
	if err := warmGet(d.primary.base, e.sessions[0].token, "/api/search?q="+e.m.SampleName[1]); err != nil {
		d.kill()
		return nil, err
	}
	d.reindexS = time.Since(ts).Seconds()
	if err := e.warmBrowse(d.primary.base, func(s *session) string { return s.token }); err != nil {
		d.kill()
		return nil, err
	}
	if e.cfg.wl.replica {
		tc := time.Now()
		fdir := e.freshDir("follower")
		if d.follower, err = e.bootServer("follower", fdir, traced, false, d.primary.replAddr); err != nil {
			d.kill()
			return nil, err
		}
		if err := waitCaughtUp(d.primary, d.follower, 120*time.Second); err != nil {
			d.kill()
			return nil, err
		}
		d.catchupS = time.Since(tc).Seconds()
		d.ft = newTarget(d.follower.base, workers)
		for _, s := range e.sessions {
			if s.rtoken, err = login(d.follower.base, s.user.Login); err != nil {
				d.kill()
				return nil, err
			}
		}
		if err := e.warmBrowse(d.follower.base, func(s *session) string { return s.rtoken }); err != nil {
			d.kill()
			return nil, err
		}
	}
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

// warmBrowse reads one page of each kind and the stats as two sessions.
func (e *env) warmBrowse(base string, tok func(*session) string) error {
	for _, s := range []*session{e.sessions[0], e.sessions[len(e.sessions)-1]} {
		for _, k := range []string{model.KindSample, model.KindExtract, model.KindWorkunit, model.KindDataResource, model.KindProject} {
			if err := warmGet(base, tok(s), "/api/browse/"+k+"?limit=50"); err != nil {
				return err
			}
		}
		if err := warmGet(base, tok(s), "/api/stats"); err != nil {
			return err
		}
	}
	return nil
}

var setupClient = &http.Client{Timeout: 60 * time.Second}

func login(base, user string) (string, error) {
	body, _ := json.Marshal(map[string]string{"Login": user, "Password": benchPassword})
	resp, err := setupClient.Post(base+"/api/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("login %s: %w", user, err)
	}
	defer resp.Body.Close()
	var out struct{ Token string }
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil || out.Token == "" {
		return "", fmt.Errorf("login %s: status %d", user, resp.StatusCode)
	}
	return out.Token, nil
}

func getJSON(base, token, path string, v any) error {
	req, err := http.NewRequest("GET", base+path, nil)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := setupClient.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, data)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

func warmGet(base, token, path string) error { return getJSON(base, token, path, nil) }

// replState is GET /api/replication.
type replState struct {
	CommitSeq   uint64 `json:"commitSeq"`
	Replication struct {
		LastApplied uint64 `json:"lastApplied"`
		Lag         uint64 `json:"lag"`
		Resyncs     uint64 `json:"resyncs"`
	} `json:"replication"`
}

// waitCaughtUp polls until the follower's applied seq reaches the
// primary's head.
func waitCaughtUp(primary, follower *server, timeout time.Duration) error {
	var p replState
	if err := getJSON(primary.base, "", "/api/replication", &p); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := follower.c.alive(); err != nil {
			return err
		}
		var f replState
		if err := getJSON(follower.base, "", "/api/replication", &f); err == nil && f.CommitSeq >= p.CommitSeq {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("follower did not reach seq %d within %v", p.CommitSeq, timeout)
}

// phaseRun is one measured open-loop phase with its counters.
type phaseRun struct {
	res     *phaseResult
	steal   float64 // host steal share during the phase
	cnt     *counters
	sched   []scheduled
	srvCPU  time.Duration
	genCPU  time.Duration
	gcs     int
	lagMax  uint64
	resyncs uint64
}

// phase drives the deployment open-loop at rate for dur.
func (e *env) phase(d *deployment, name string, rate float64, dur, drain time.Duration, sampleRepl bool) (*phaseRun, error) {
	n := int(rate * dur.Seconds())
	pr := &phaseRun{cnt: &counters{}, sched: e.cfg.wl.schedule(n, e.cfg.seed, name, e.sessions)}
	c := &client{wl: e.cfg.wl, m: e.m, seed: e.cfg.seed, sessions: e.sessions, primary: d.pt, follower: d.ft,
		ledger: e.ledger, fails: e.fails, cnt: pr.cnt, phaseName: name}
	stopAux := make(chan struct{})
	var aux sync.WaitGroup
	defer aux.Wait()
	defer close(stopAux)
	if d.follower != nil {
		c.probe = make(chan probeReq, 1)
		aux.Add(1)
		go func() { defer aux.Done(); e.visibleProbe(d, c, stopAux) }()
		if sampleRepl {
			aux.Add(1)
			go func() { defer aux.Done(); pr.lagMax, pr.resyncs = sampleLag(d.follower, stopAux) }()
		}
	}
	cpu0, err := serverCPU(d)
	if err != nil {
		return nil, err
	}
	gc0 := gcCount(d)
	g0 := selfCPU()
	st0, tot0 := cpuTimes()
	pr.res = openLoop(uniformDues(n, rate), workers, drain, func(w, i int, rec *callRecord) {
		c.do(w, i, &pr.sched[i], rec)
	})
	pr.steal = stealSince(st0, tot0)
	pr.genCPU = selfCPU() - g0
	pr.gcs = gcCount(d) - gc0
	cpu1, err := serverCPU(d)
	if err != nil {
		return nil, err
	}
	pr.srvCPU = cpu1 - cpu0
	for _, s := range d.servers() {
		if err := s.c.alive(); err != nil {
			return nil, fmt.Errorf("during phase %s: %w", name, err)
		}
	}
	return pr, nil
}

func serverCPU(d *deployment) (time.Duration, error) {
	var sum time.Duration
	for _, s := range d.servers() {
		t, err := procCPU(s.c.pid())
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func gcCount(d *deployment) int {
	n := 0
	for _, s := range d.servers() {
		n += s.c.tail.gcCount()
	}
	return n
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeReq is an acknowledged sample whose visibility on the follower is
// timed from its acknowledgement.
type probeReq struct {
	id    int64
	acked time.Time
}

// visibleProbe times, for sampled acknowledged samples, how long after
// the primary's 201 the follower serves the record.
func (e *env) visibleProbe(d *deployment, c *client, stop <-chan struct{}) {
	admin := e.sessions[len(e.sessions)-1]
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		select {
		case <-stop:
			return
		case p := <-c.probe:
			path := d.follower.base + "/api/samples/" + strconv.FormatInt(p.id, 10)
			deadline := p.acked.Add(5 * time.Second)
			visible := false
			for !visible && time.Now().Before(deadline) {
				req, _ := http.NewRequest("GET", path, nil)
				req.Header.Set("Authorization", "Bearer "+admin.rtoken)
				resp, err := hc.Do(req)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						c.cnt.visibleMu.Lock()
						c.cnt.visible.add(float64(time.Since(p.acked)) / float64(time.Millisecond))
						c.cnt.visibleMu.Unlock()
						visible = true
						continue
					}
				}
				time.Sleep(time.Millisecond)
			}
			if !visible {
				c.fails.add(opWrite, "sample %d acknowledged by the primary is not on the follower after 5s", p.id)
			}
		}
	}
}

// sampleLag polls the follower's replication report on a fixed period
// and returns the highest lag seen and the resyncs during the phase.
func sampleLag(f *server, stop <-chan struct{}) (lagMax, resyncs uint64) {
	var first, last replState
	_ = getJSON(f.base, "", "/api/replication", &first)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			resyncs = last.Replication.Resyncs - min(first.Replication.Resyncs, last.Replication.Resyncs)
			return lagMax, resyncs
		case <-tick.C:
			var st replState
			if getJSON(f.base, "", "/api/replication", &st) == nil {
				last = st
				lagMax = max(lagMax, st.Replication.Lag)
			}
		}
	}
}

// summary is a phase's latencies per op class, from due times.
type summary struct {
	all                   *dist
	op                    [numOps]*dist
	scopedBrowse, unscBrw *dist
	sent, failed, ok      int
}

func summarize(p *phaseResult) *summary {
	s := &summary{all: &dist{}, scopedBrowse: &dist{}, unscBrw: &dist{}}
	for i := range s.op {
		s.op[i] = &dist{}
	}
	for i, rec := range p.calls {
		lat := missedMS
		if rec.sent && rec.ok {
			lat = p.latencyMS(i)
			s.ok++
		} else {
			s.failed++
		}
		if rec.sent {
			s.sent++
		}
		s.all.add(lat)
		s.op[rec.op].add(lat)
		if rec.op == opBrowse {
			if rec.scoped {
				s.scopedBrowse.add(lat)
			} else {
				s.unscBrw.add(lat)
			}
		}
	}
	return s
}

// reportLatency records an op class's median and the highest of p99 and
// p90 its sample supports, each named by its percentile and carrying its
// sample count. A class too sparse even for a median is noted.
func (e *env) reportLatency(prefix string, d *dist) {
	med, ok := tail(d, prefix, 0.5)
	if !ok {
		e.note("%s: %d samples, too few for a median", prefix, d.n())
		return
	}
	e.metric(med.name+"_ms", "ms", med.value, fmt.Sprintf("n=%d", med.n))
	if t, ok := tail(d, prefix, 0.99); ok && t.q > 0.5 {
		e.metric(t.name+"_ms", "ms", t.value, fmt.Sprintf("n=%d, %d beyond", t.n, beyond(t.n, t.q)))
	}
}

// untraced is the end-to-end run: setup several times, the fixed-rate
// phase, the capacity sweep, then kill -9, restart and the ledger check.
func (e *env) untraced() (int, error) {
	wl := e.cfg.wl
	var setups, steals []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.kill()
		}
		var err error
		st0, tot0 := cpuTimes()
		if d, err = e.setup(false); err != nil {
			return 0, err
		}
		setups = append(setups, d.setupS)
		steals = append(steals, stealSince(st0, tot0))
	}
	defer d.kill()
	e.metric("setup_s", "s", median(setups), fmt.Sprintf("median of %v (host steal %v)", fmtList(setups), fmtList(steals)))
	if wl.replica {
		e.metric("catchup_s", "s", d.catchupS, "empty follower to the primary's head, last setup")
	}

	dur := time.Duration(e.cfg.seconds) * time.Second
	pr, err := e.phase(d, "fixed", wl.rate, dur, 30*time.Second, false)
	if err != nil {
		return 0, err
	}
	attempted := len(pr.res.calls)
	e.countUnsent(pr)
	sum := summarize(pr.res)
	e.note("fixed phase: %.0f req/s offered for %v: %d calls, %d failed or unsent; host steal %.1f%%",
		wl.rate, dur, attempted, sum.failed, 100*pr.steal)
	e.metric("cpu_ms_per_req", "ms", float64(pr.srvCPU)/float64(time.Millisecond)/float64(attempted),
		fmt.Sprintf("server CPU over the fixed phase, all server processes; generator %.3f ms/req",
			float64(pr.genCPU)/float64(time.Millisecond)/float64(attempted)))
	e.reportLatency("all", sum.all)
	for op := opClass(0); op < numOps; op++ {
		e.reportLatency(op.String(), sum.op[op])
	}
	e.reportLatency("browse.scoped", sum.scopedBrowse)
	e.reportLatency("browse.unscoped", sum.unscBrw)
	if wl.replica {
		e.reportLatency("visible", &pr.cnt.visible)
	}
	late := pr.res.lateMax
	lateMS := float64(late) / float64(time.Millisecond)
	e.note("gen.late_ms_max = %.3f ms (bound %v)", lateMS, lateBound)
	if late > lateBound {
		e.problem("generator fell %.1f ms behind its schedule (bound %v)", lateMS, lateBound)
	}

	// Disk is read before the sweep, whose write volume depends on how
	// fast the server happened to be.
	disk, err := dirBytes(d.primary.dataDir)
	if err != nil {
		return 0, err
	}
	e.metric("disk_mb", "MB", float64(disk)/(1<<20), "primary data dir after the fixed-rate phase")

	capRPS, steps := capacitySweep(wl.sweepStart, func(rate float64) stepResult {
		return e.sweepStep(d, rate, &attempted)
	})
	e.metric("capacity_rps", "req/s", capRPS, fmt.Sprintf("latency-limited sweep, %d steps, p99 <= %d ms", len(steps), sweepLimitMS))

	var rss int64
	for _, s := range d.servers() {
		v, err := procPeakRSS(s.c.pid())
		if err != nil {
			return 0, err
		}
		rss += v
	}
	e.metric("server_rss_mb", "MB", float64(rss)/(1<<20), "peak VmHWM over the run, all server processes")

	if d.follower != nil {
		d.follower.c.kill()
		d.ft.close()
	}
	st0, tot0 := cpuTimes()
	rec, err := e.crashRestart(d.primary)
	if err != nil {
		return 0, err
	}
	e.metric("recover_s", "s", rec, fmt.Sprintf("kill -9 to /readyz 200; host steal %.1f%%", 100*stealSince(st0, tot0)))
	cpu, err := procCPU(d.primary.c.pid())
	if err != nil {
		return 0, err
	}
	e.metric("recover_cpu_s", "s", cpu.Seconds(), "server CPU from exec to ready")
	if err := e.checkLedger(d.primary); err != nil {
		return 0, err
	}
	e.metric("error_ratio", "1", float64(e.fails.count())/float64(max(attempted, 1)), fmt.Sprintf("%d of %d", e.fails.count(), attempted))
	return attempted, nil
}

// countUnsent counts the calls of a fixed-rate phase that were still
// queued when the drain deadline passed as failures: the server did not
// serve them.
func (e *env) countUnsent(pr *phaseRun) {
	for i, rec := range pr.res.calls {
		if !rec.sent {
			e.fails.add(pr.sched[i].op, "call %d not sent within the drain time after its due time", i)
		}
	}
}

// sweepStep runs one step of the latency-limited sweep.
func (e *env) sweepStep(d *deployment, rate float64, attempted *int) stepResult {
	stepDur := time.Duration(math.Max(stepSeconds, 1100/rate) * float64(time.Second))
	sp, err := e.phase(d, fmt.Sprintf("sweep%.0f", rate), rate, stepDur, time.Second, false)
	if err != nil {
		e.problem("sweep step %.0f: %v", rate, err)
		return stepResult{Rate: rate}
	}
	ss := summarize(sp.res)
	*attempted += ss.sent
	r := stepResult{Rate: rate, Achieved: float64(ss.ok) / sp.res.elapsed.Seconds(), P99: ss.all.quantile(0.99),
		N: ss.all.n(), Failed: ss.failed, BacklogMid: sp.res.backlogMid, BacklogEnd: sp.res.backlogEnd,
		Unsupported: !supports(ss.all.n(), 0.99)}
	e.note("sweep step %.0f req/s: achieved %.1f, p99 %.2f ms (n=%d), failed %d, backlog %d->%d, pass=%v",
		rate, r.Achieved, r.P99, r.N, r.Failed, r.BacklogMid, r.BacklogEnd, r.passes())
	return r
}

// crashRestart kills the server with SIGKILL and restarts it on the same
// data dir, returning the time until /readyz answers 200.
func (e *env) crashRestart(s *server) (float64, error) {
	s.c.kill()
	t := time.Now()
	if err := s.start("primary-restarted", false); err != nil {
		return 0, err
	}
	return time.Since(t).Seconds(), nil
}

// checkLedger verifies, on the restarted server, that every acknowledged
// write of the run is present with its name.
func (e *env) checkLedger(s *server) error {
	var admin *session
	for _, ss := range e.sessions {
		if ss.user.Role == model.RoleAdmin || ss.user.Role == model.RoleExpert {
			admin = ss
		}
	}
	token, err := login(s.base, admin.user.Login)
	if err != nil {
		return err
	}
	found := map[string]map[int64]string{}
	for _, kind := range []string{model.KindSample, model.KindExtract} {
		found[kind] = map[int64]string{}
		from, _ := e.ledger.idRange(kind)
		for from > 0 {
			var page browsePage
			if err := getJSON(s.base, token, fmt.Sprintf("/api/browse/%s?limit=500&from=%d", kind, from), &page); err != nil {
				return fmt.Errorf("ledger check: %w", err)
			}
			for _, it := range page.Items {
				found[kind][it.ID] = it.Name
			}
			from = page.Next
		}
	}
	var terms []struct {
		ID    int64
		Value string
	}
	if err := getJSON(s.base, token, "/api/annotations?vocabulary="+model.VocabTreatment, &terms); err != nil {
		return fmt.Errorf("ledger check: %w", err)
	}
	found["annotation"] = map[int64]string{}
	for _, t := range terms {
		found["annotation"][t.ID] = t.Value
	}
	bad := e.ledger.check(found)
	e.note("ledger: %d acknowledged writes checked after kill -9, %d missing or wrong", e.ledger.len(), len(bad))
	for i, b := range bad {
		if i == 10 {
			break
		}
		e.note("  %s", b)
	}
	if len(bad) > 0 {
		e.problem("%d acknowledged writes lost or changed across kill -9", len(bad))
	}
	return nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// traced is the per-layer run: the fixed-rate phase once against the
// unmodified server and once against the traced server (same schedule),
// then single-threaded layer replays on copies of the post-run data.
func (e *env) traced() (int, error) {
	wl := e.cfg.wl
	dur := time.Duration(e.cfg.seconds) * time.Second

	d, err := e.setup(false)
	if err != nil {
		return 0, err
	}
	base, err := e.phase(d, "fixed", wl.rate, dur, 30*time.Second, false)
	d.kill()
	if err != nil {
		return 0, err
	}
	e.countUnsent(base)
	bsum := summarize(base.res)

	e.ledger = newLedger()
	for _, s := range e.sessions {
		s.reset()
		wl.initStreams(s)
	}
	d, err = e.setup(true)
	if err != nil {
		return 0, err
	}
	tr, err := e.phase(d, "fixed", wl.rate, dur, 30*time.Second, true)
	if err != nil {
		d.kill()
		return 0, err
	}
	e.countUnsent(tr)
	tsum := summarize(tr.res)
	var traces []*traceFile
	for _, s := range d.servers() {
		if err := s.c.stop(30 * time.Second); err != nil {
			d.kill()
			return 0, err
		}
		tf, err := readTrace(s.spans)
		if err != nil {
			d.kill()
			return 0, err
		}
		traces = append(traces, tf)
	}
	d.kill()
	attempted := len(base.res.calls) + len(tr.res.calls)

	e.layerPortal(tr, traces, bsum, tsum)
	e.layerStore(tr, traces[0])
	e.layerClient(tr, base, d)
	if err := e.layerReplay(tr, d); err != nil {
		return 0, err
	}
	return attempted, nil
}

func (s *session) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streams, s.etags, s.seen, s.mySamples, s.hits, s.seq = nil, map[string]string{}, map[string][]int64{}, nil, nil, 0
}

// layerPortal joins server spans to client calls by request id.
func (e *env) layerPortal(tr *phaseRun, traces []*traceFile, bsum, tsum *summary) {
	byRID := map[string]span{}
	for _, tf := range traces {
		for _, sp := range tf.Spans {
			if sp.Name == "portal.serve" && strings.HasPrefix(sp.Parent, "fixed:") {
				byRID[sp.Parent] = sp
			}
		}
	}
	var serve [numOps]dist
	var scoped, unscoped, wire, bytesBrowse dist
	overloaded, joined := 0, 0
	for i, rec := range tr.res.calls {
		if !rec.sent {
			continue
		}
		sp, ok := byRID["fixed:"+strconv.Itoa(i)]
		if !ok {
			continue
		}
		joined++
		ms := float64(sp.dur()) / float64(time.Millisecond)
		serve[rec.op].add(ms)
		client := span{Name: "client", Start: rec.start.UnixNano(), End: rec.end.UnixNano()}
		wire.add(float64(selfTime(client, []span{sp})) / float64(time.Millisecond))
		if sp.Status == http.StatusServiceUnavailable {
			overloaded++
		}
		if rec.op == opBrowse {
			if rec.scoped {
				scoped.add(ms)
			} else {
				unscoped.add(ms)
			}
			if sp.Status == http.StatusOK {
				bytesBrowse.add(float64(sp.Bytes))
			}
		}
	}
	e.note("traced phase: %d calls, %d joined to server spans", len(tr.res.calls), joined)
	if joined == 0 {
		e.problem("no server span matched a client call")
	}
	for op := opClass(0); op < numOps; op++ {
		e.metric("portal.serve_ms."+op.String(), "ms", serve[op].quantile(0.5), fmt.Sprintf("p50, n=%d", serve[op].n()))
	}
	e.metric("portal.serve_ms.browse.scoped", "ms", scoped.quantile(0.5), fmt.Sprintf("p50, n=%d", scoped.n()))
	e.metric("portal.serve_ms.browse.unscoped", "ms", unscoped.quantile(0.5), fmt.Sprintf("p50, n=%d", unscoped.n()))
	e.metric("portal.wire_ms", "ms", wire.quantile(0.5), "p50 of client span minus server span")
	e.metric("portal.resp_bytes.browse", "bytes", bytesBrowse.quantile(0.5), fmt.Sprintf("p50, n=%d", bytesBrowse.n()))
	ratio := 0.0
	if c := tr.cnt.conditional.Load(); c > 0 {
		ratio = float64(tr.cnt.notModified.Load()) / float64(c)
	}
	e.metric("portal.not_modified_ratio", "1", ratio, fmt.Sprintf("%d of %d conditional requests", tr.cnt.notModified.Load(), tr.cnt.conditional.Load()))
	e.metric("portal.overloaded", "count", float64(overloaded), "admission 503s")
	e.metric("trace.overhead_p50_ms", "ms", tsum.all.quantile(0.5)-bsum.all.quantile(0.5),
		fmt.Sprintf("traced p50 %.3f - untraced p50 %.3f", tsum.all.quantile(0.5), bsum.all.quantile(0.5)))
}

// layerStore reads the timing filesystem's spans and counters of the
// primary.
func (e *env) layerStore(tr *phaseRun, primary *traceFile) {
	var fsync dist
	for _, sp := range primary.Spans {
		if sp.Name == "store.fsync" {
			fsync.add(float64(sp.dur()) / float64(time.Millisecond))
		}
	}
	c := primary.Counters
	commits := float64(max(c["commits"], 1))
	e.metric("store.fsyncs_per_commit", "1", float64(c["fsyncs"])/commits, fmt.Sprintf("%d fsyncs, %d commits", c["fsyncs"], c["commits"]))
	e.metric("store.fsync_ms.p50", "ms", fsync.quantile(0.5), fmt.Sprintf("n=%d", fsync.n()))
	v := fsync.quantile(0.9)
	if !supports(fsync.n(), 0.9) {
		v = math.NaN()
	}
	e.metric("store.fsync_ms.p90", "ms", v, fmt.Sprintf("n=%d", fsync.n()))
	writes := float64(max(tr.cnt.writesAcked.Load(), 1))
	e.metric("store.wal_bytes_per_write", "bytes", float64(c["walBytes"])/writes, fmt.Sprintf("%d WAL bytes, %d acked writes", c["walBytes"], tr.cnt.writesAcked.Load()))
	e.metric("store.snapshots", "count", float64(c["snapshots"]), "snapshot installs during the traced server's life")
}

// layerClient reports the counts the client itself measures.
func (e *env) layerClient(tr, base *phaseRun, d *deployment) {
	ratio := func(k int) float64 {
		r := tr.cnt.returned[k].Load()
		if r == 0 {
			return math.NaN()
		}
		return float64(tr.cnt.examined[k].Load()) / float64(r)
	}
	e.metric("store.examined_per_returned.browse.scoped", "1", ratio(1), fmt.Sprintf("%d examined, %d returned", tr.cnt.examined[1].Load(), tr.cnt.returned[1].Load()))
	e.metric("store.examined_per_returned.browse.unscoped", "1", ratio(0), fmt.Sprintf("%d examined, %d returned", tr.cnt.examined[0].Load(), tr.cnt.returned[0].Load()))
	e.metric("auth.foreign_hits", "count", float64(tr.cnt.foreignHits.Load()), "rows scientists received from projects they are not in")
	e.metric("search.dirty_per_query", "1", mean(&tr.cnt.dirty), fmt.Sprintf("mean writes acked since the previous search, n=%d", tr.cnt.dirty.n()))
	e.metric("search.reindex_s", "s", d.reindexS, "first search after boot")
	e.metric("repl.lag_max", "commits", float64(tr.lagMax), "0 without a follower")
	e.metric("repl.resyncs", "count", float64(tr.resyncs), "during the phase; 0 without a follower")
	n := float64(len(base.res.calls))
	e.metric("runtime.cpu_ms_per_req", "ms", float64(base.srvCPU)/float64(time.Millisecond)/n, "server CPU, untraced phase")
	e.metric("runtime.gc_per_kreq", "1", float64(tr.gcs)/float64(len(tr.res.calls))*1000,
		fmt.Sprintf("gctrace on the traced server: %d GCs in the phase, %d since boot", tr.gcs, gcCount(d)))
	e.metric("gen.late_ms_max", "ms", float64(max(tr.res.lateMax, base.res.lateMax))/float64(time.Millisecond), "")
	e.metric("gen.cpu_ms_per_req", "ms", float64(base.genCPU)/float64(time.Millisecond)/n, "generator CPU, untraced phase")
	if max(tr.res.lateMax, base.res.lateMax) > lateBound {
		e.problem("generator fell behind its schedule by more than %v", lateBound)
	}
}

func mean(d *dist) float64 {
	if d.n() == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.v {
		s += v
	}
	return s / float64(d.n())
}

// layerReplay runs the replay child on copies of the traced run's data.
func (e *env) layerReplay(tr *phaseRun, d *deployment) error {
	in := replayInputs{Browse: tr.cnt.browseInputs, Search: tr.cnt.searchInputs}
	if len(in.Search) == 0 {
		in.Search = []searchInput{{Login: e.sessions[0].user.Login, Q: e.m.SampleName[1]}}
	}
	inputs := filepath.Join(e.runDir, "inputs.json")
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	if err := os.WriteFile(inputs, data, 0o644); err != nil {
		return err
	}
	post := e.freshDir("postrun")
	if err := copyDir(d.primary.dataDir, post); err != nil {
		return err
	}
	fix := e.freshDir("fixture")
	if err := copyDir(filepath.Join(e.fixture, "data"), fix); err != nil {
		return err
	}
	c, err := startChild("replay", e.self, nil, "replay", "-postrun", post, "-fixture", fix,
		"-inputs", inputs, "-manifest", filepath.Join(e.fixture, "manifest.json"))
	if err != nil {
		return err
	}
	<-c.done
	out := strings.TrimSpace(c.tail.String())
	if c.err != nil {
		return fmt.Errorf("replay: %v\n%s", c.err, out)
	}
	var res replayResult
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &res); err != nil {
		return fmt.Errorf("replay output: %w", err)
	}
	units := map[string]string{
		"store.open_s": "s", "store.snapshot_bytes_per_record": "bytes", "store.query_us.browse": "us",
		"store.commit_us": "us", "auth.access_us": "us", "search.query_us": "us",
		"search.flush_us_per_doc": "us", "repl.apply_us_per_frame": "us",
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := res[n]
		if !ok {
			v = math.NaN()
		}
		e.metric(n, units[n], v, "replay")
	}
	e.note("replayed %d browse pages, %d searches, %.0f WAL frames", len(in.Browse), len(in.Search), res["repl.frames"])
	return nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// metrics the last output line carries, and in which units.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// resultMetrics selects the metrics BENCHMARK.json lists for this mode,
// recording a problem for any the run did not produce or produced in
// another unit.
func (e *env) resultMetrics(list []specMetric) map[string]metricValue {
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := e.metrics[m.Name]
		switch {
		case !ok:
			e.problem("metric %s was not measured", m.Name)
			v = metricValue{Unit: m.Unit}
		case v.Unit != m.Unit:
			e.problem("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
	}
	return out
}
