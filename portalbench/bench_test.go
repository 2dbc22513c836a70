package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls on the first request must have its stall charged
// to every request that was due while it lasted: latency counts from the
// due time, not from when the generator got a connection.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	dues := uniformDues(40, 100) // one every 10ms
	p := openLoop(dues, 1, time.Second, func(_, _ int, rec *callRecord) {
		rec.start = time.Now()
		resp, err := client.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		rec.end = time.Now()
		rec.ok = err == nil
	})
	if p.skipped != 0 {
		t.Fatalf("%d calls skipped", p.skipped)
	}
	for i, due := range dues {
		if due >= stall {
			break
		}
		want := float64(stall-due)/float64(time.Millisecond) - 5
		if got := p.latencyMS(i); got < want {
			t.Errorf("call %d due at %v: latency %.1f ms, want >= %.1f (the stall it queued behind)", i, due, got, want)
		}
		if i > 0 {
			// The same call timed from its own send looks fast: that is
			// the coordinated omission the due-time rule avoids.
			if own := p.calls[i].end.Sub(p.calls[i].start); own > stall/2 {
				t.Errorf("call %d: own round trip %v, expected fast", i, own)
			}
		}
	}
	if p.backlogMid < 1 && p.backlogEnd < 1 {
		t.Log("backlog drained before the midpoint")
	}
}

// Calls that are still queued when the drain deadline passes are skipped
// and counted, never silently dropped.
func TestOpenLoopSkipsPastDrain(t *testing.T) {
	p := openLoop(uniformDues(20, 1000), 1, 0, func(_, i int, rec *callRecord) {
		time.Sleep(50 * time.Millisecond)
		rec.end = time.Now()
		rec.ok = true
	})
	if p.skipped == 0 {
		t.Fatal("no call skipped although the worker was busy past the deadline")
	}
	sent := 0
	for _, c := range p.calls {
		if c.sent {
			sent++
		}
	}
	if sent+p.skipped != 20 {
		t.Fatalf("sent %d + skipped %d != 20", sent, p.skipped)
	}
}

func TestPercentileCountRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // exactly 10 beyond
		{999, 0.99, false},
		{100, 0.9, true},
		{99, 0.9, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supports(tc.n, tc.q); got != tc.want {
			t.Errorf("supports(%d, %g) = %v, want %v (beyond=%d)", tc.n, tc.q, got, tc.want, beyond(tc.n, tc.q))
		}
	}

	d := &dist{}
	for i := 1; i <= 500; i++ {
		d.add(float64(i))
	}
	p, ok := tail(d, "write", 0.99)
	if !ok || p.name != "write_p90" || p.value != 450 || p.n != 500 {
		t.Errorf("500 samples: got %+v ok=%v, want write_p90 = 450 with n=500", p, ok)
	}
	small := &dist{v: []float64{1, 2, 3}}
	if _, ok := tail(small, "x", 0.99); ok {
		t.Error("3 samples must not support even a median")
	}
}

func TestCapacitySweepStopRule(t *testing.T) {
	for _, capacity := range []float64{430, 520, 600, 999} {
		var rates []float64
		fake := func(rate float64) stepResult {
			rates = append(rates, rate)
			r := stepResult{Rate: rate, Achieved: rate, N: 2000, P99: 5}
			if rate > capacity {
				r.P99 = 400
			}
			return r
		}
		got, steps := capacitySweep(500, fake)
		if len(steps) > maxSteps {
			t.Errorf("capacity %v: %d steps", capacity, len(steps))
		}
		if got > capacity || got == 0 {
			t.Errorf("capacity %v: reported %v", capacity, got)
			continue
		}
		// The reported step's failing neighbour is at most maxGap above it,
		// unless the step budget ran out first.
		lowestFail := 0.0
		for _, r := range rates {
			if r > capacity && (lowestFail == 0 || r < lowestFail) {
				lowestFail = r
			}
		}
		if len(steps) < maxSteps && lowestFail/got > maxGap*1.0001 {
			t.Errorf("capacity %v: reported %v but the next failing step is %v", capacity, got, lowestFail)
		}
	}

	// A knee out of reach of the step budget reports no capacity.
	got, steps := capacitySweep(500, func(rate float64) stepResult {
		return stepResult{Rate: rate, Achieved: rate, N: 2000, P99: 400}
	})
	if got != 0 || len(steps) != maxSteps {
		t.Errorf("unreachable knee: reported %v after %d steps", got, len(steps))
	}

	base := stepResult{Rate: 100, Achieved: 100, N: 2000, P99: 5, BacklogMid: 3, BacklogEnd: 4}
	if !base.passes() {
		t.Fatal("healthy step must pass")
	}
	for name, r := range map[string]stepResult{
		"slow":        {Rate: 100, N: 2000, P99: sweepLimitMS + 1},
		"failed":      {Rate: 100, N: 2000, P99: 5, Failed: 1},
		"backlog":     {Rate: 100, N: 2000, P99: 5, BacklogMid: 3, BacklogEnd: 40},
		"unsupported": {Rate: 100, N: 900, P99: 5, Unsupported: true},
	} {
		if r.passes() {
			t.Errorf("%s step must fail", name)
		}
	}
}

func TestLedgerCheck(t *testing.T) {
	l := newLedger()
	l.add(ack{Kind: "sample", ID: 3200, Name: "s1", Project: 7})
	l.add(ack{Kind: "sample", ID: 3201, Name: "s2", Project: 7})
	l.add(ack{Kind: "extract", ID: 4000, Name: "e1"})
	l.add(ack{Kind: "annotation", ID: 12, Name: "t1"})
	found := map[string]map[int64]string{
		"sample":     {3200: "s1", 3201: "renamed", 3202: "unacked but present"},
		"extract":    {},
		"annotation": {12: "t1"},
	}
	bad := l.check(found)
	if len(bad) != 2 {
		t.Fatalf("violations = %q, want the renamed sample and the missing extract", bad)
	}
	if lo, hi := l.idRange("sample"); lo != 3200 || hi != 3201 {
		t.Errorf("sample id range = %d..%d", lo, hi)
	}
	if p, ok := l.sampleProject(3201); !ok || p != 7 {
		t.Errorf("sampleProject(3201) = %d, %v", p, ok)
	}
	found["sample"][3201] = "s2"
	found["extract"][4000] = "e1"
	if bad := l.check(found); len(bad) != 0 {
		t.Fatalf("intact ledger reported %q", bad)
	}
}

// A searched sample must be in the hits when the caller may see it. A
// scientist searching another project's sample may get the hit (counted as
// a foreign hit) or not, so a scope-filtered search stays valid.
func TestSearchCheckFollowsScope(t *testing.T) {
	for _, tc := range []struct {
		name          string
		scoped        bool
		sampleProject int64
		serverHit     bool
		wantFail      bool
		wantForeign   int64
	}{
		{"own sample found", true, 1, true, false, 0},
		{"own sample missing", true, 1, false, true, 0},
		{"foreign sample leaked", true, 2, true, false, 1},
		{"foreign sample filtered", true, 2, false, false, 0},
		{"expert sees every project", false, 2, true, false, 0},
		{"expert missing a sample", false, 2, false, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.serverHit {
					fmt.Fprint(w, `[{"Kind":"sample","ID":1}]`)
					return
				}
				fmt.Fprint(w, `[]`)
			}))
			defer srv.Close()
			c := &client{
				wl:      &workload{},
				m:       &manifest{SampleName: []string{"", "s1"}, SampleProject: []int64{0, tc.sampleProject}},
				primary: newTarget(srv.URL, 1),
				ledger:  newLedger(),
				fails:   &failures{},
				cnt:     &counters{},
			}
			defer c.primary.close()
			s := &session{scoped: tc.scoped, projects: map[int64]bool{1: true}}
			ok := c.search(0, "r1", s, &rng{}, nil)
			if gotFail := c.fails.count() > 0; gotFail != tc.wantFail || ok == tc.wantFail {
				t.Errorf("ok=%v failures=%v, want failure %v", ok, c.fails.msgs, tc.wantFail)
			}
			if got := c.cnt.foreignHits.Load(); got != tc.wantForeign {
				t.Errorf("foreign hits = %d, want %d", got, tc.wantForeign)
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one nested", []span{{Start: 10, End: 30}}, 80},
		{"overlapping children count once", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"child past the parent is clipped", []span{{Start: 90, End: 120}}, 90},
		{"child outside the parent", []span{{Start: 200, End: 300}}, 100},
		{"disjoint children", []span{{Start: 50, End: 60}, {Start: 0, End: 10}, {Start: 10, End: 20}}, 70},
		{"child covers all", []span{{Start: -5, End: 105}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}
