package main

import (
	"fmt"
	"sort"
	"sync"
)

// ack is one write the server acknowledged (201): it must survive a
// kill -9 and restart.
type ack struct {
	Kind    string // sample, extract or annotation
	ID      int64
	Name    string
	Project int64
}

// ledger records every acknowledged write of a run.
type ledger struct {
	mu      sync.Mutex
	acks    []ack
	project map[int64]int64 // sample id -> project, for samples created in the run
	recent  []int           // indexes into acks of the latest sample acks
	ids     map[string][2]int64
}

func newLedger() *ledger {
	return &ledger{project: map[int64]int64{}, ids: map[string][2]int64{}}
}

func (l *ledger) add(a ack) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acks = append(l.acks, a)
	r := l.ids[a.Kind]
	if r[0] == 0 || a.ID < r[0] {
		r[0] = a.ID
	}
	r[1] = max(r[1], a.ID)
	l.ids[a.Kind] = r
	if a.Kind == "sample" {
		l.project[a.ID] = a.Project
		const keep = 64
		if len(l.recent) == keep {
			l.recent = l.recent[1:]
		}
		l.recent = append(l.recent, len(l.acks)-1)
	}
}

func (l *ledger) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acks)
}

// sampleProject returns the project of a sample created in this run.
func (l *ledger) sampleProject(id int64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.project[id]
	return p, ok
}

// recentSample picks one of the latest acknowledged samples.
func (l *ledger) recentSample(pick func(n int) int) (ack, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recent) == 0 {
		return ack{}, false
	}
	return l.acks[l.recent[pick(len(l.recent))]], true
}

// idRange returns the smallest and largest acknowledged ids of kind
// (0, 0 when none).
func (l *ledger) idRange(kind string) (lo, hi int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.ids[kind]
	return r[0], r[1]
}

// check compares the ledger with what the restarted server holds: found
// maps kind -> id -> name. Every acknowledged write must be present under
// its id with its name. It returns one line per violation.
func (l *ledger) check(found map[string]map[int64]string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var bad []string
	for _, a := range l.acks {
		name, ok := found[a.Kind][a.ID]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("acked %s %d (%q) missing after restart", a.Kind, a.ID, a.Name))
		case name != a.Name:
			bad = append(bad, fmt.Sprintf("acked %s %d is %q after restart, want %q", a.Kind, a.ID, name, a.Name))
		}
	}
	sort.Strings(bad)
	return bad
}
