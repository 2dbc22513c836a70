package main

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/model"
)

// workload is one traffic mix. Its fields are the whole difference
// between workloads; everything else is shared.
type workload struct {
	// mix weights the op classes of every phase.
	mix [numOps]int
	// rate is the fixed-rate phase's offered load, about 40% of the
	// latency-limited knee on a 2-core machine.
	rate float64
	// sweepStart is the capacity sweep's first offered rate, near the
	// latency-limited knee on a 2-core machine.
	sweepStart float64
	// searchOwn makes search look up names this run registered.
	searchOwn bool
	// ownListings restricts browse to the session's own registrations.
	ownListings bool
	// replica runs a durable follower: reads (browse, lookup) go to it.
	replica bool
}

var workloads = map[string]*workload{
	// Read-mostly portal traffic; half the requests come from scientists
	// whose project scope hides >99% of rows, half from experts and
	// admins whose scope hides nothing. Session, encode, the planner and
	// the per-row scope filter do the work; WAL and search flush do little.
	"browse": {
		mix:  [numOps]int{opBrowse: 50, opLookup: 25, opSearch: 10, opWrite: 5},
		rate: 300, sweepStart: 700,
	},
	// Write-heavy registration traffic: the commit path (overlay, WAL,
	// group-commit fsync, publish, event fan-out) and search flush under
	// Store.Barrier do the work; the scope filter does little.
	"ingest": {
		mix:  [numOps]int{opWrite: 70, opSearch: 20, opBrowse: 6, opLookup: 4},
		rate: 200, sweepStart: 550, searchOwn: true, ownListings: true,
	},
	// A primary and one durable follower: writes and search go to the
	// primary, browse and lookup to the follower, which must catch up by
	// snapshot first. Replication ship/apply and the snapshot codec do
	// the work.
	"replica": {
		mix:  [numOps]int{opWrite: 30, opSearch: 10, opBrowse: 40, opLookup: 20},
		rate: 200, sweepStart: 450, replica: true,
	},
}

// Session pool: genload's own users, chosen by the seed. Half of all
// requests come from scientists.
const (
	poolScientists = 12
	poolOthers     = 8
)

// pickSessions chooses the run's users from the manifest: scientists who
// are members of at least one project, and experts/admins.
func pickSessions(m *manifest, seed int64) ([]*session, error) {
	var sci, oth []manifestUser
	for _, u := range m.Users {
		switch {
		case u.Role == model.RoleScientist && len(u.Projects) > 0:
			sci = append(sci, u)
		case u.Role == model.RoleExpert || u.Role == model.RoleAdmin:
			oth = append(oth, u)
		}
	}
	if len(sci) < poolScientists || len(oth) < poolOthers {
		return nil, fmt.Errorf("population has %d scientists with projects and %d experts/admins; need %d and %d",
			len(sci), len(oth), poolScientists, poolOthers)
	}
	r := &rng{s: uint64(seed) ^ 0x5eed}
	shuffle := func(us []manifestUser) {
		for i := len(us) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			us[i], us[j] = us[j], us[i]
		}
	}
	shuffle(sci)
	shuffle(oth)
	var out []*session
	for _, u := range append(sci[:poolScientists:poolScientists], oth[:poolOthers]...) {
		s := &session{
			user: u, scoped: u.Role == model.RoleScientist,
			projects: map[int64]bool{}, etags: map[string]string{}, seen: map[string][]int64{},
		}
		for _, p := range u.Projects {
			s.projects[p] = true
		}
		out = append(out, s)
	}
	return out, nil
}

// initStreams gives a session its browse cursor chains: the five core
// kinds unfiltered plus three filtered listings, or on ingest the kinds
// the session registers, unfiltered and filtered to its own project.
func (wl *workload) initStreams(s *session) {
	if wl.ownListings {
		own := s.user.Projects
		if len(own) == 0 {
			own = []int64{1}
		}
		s.streams = []*stream{
			{kind: model.KindSample, filter: url.Values{}},
			{kind: model.KindExtract, filter: url.Values{}},
			{kind: model.KindSample, filter: url.Values{"project": {strconv.FormatInt(own[0], 10)}}, filtered: true},
		}
		return
	}
	for _, kind := range []string{model.KindSample, model.KindExtract, model.KindWorkunit, model.KindDataResource, model.KindProject} {
		s.streams = append(s.streams, &stream{kind: kind, filter: url.Values{}})
	}
	s.streams = append(s.streams,
		&stream{kind: model.KindSample, filter: url.Values{"species": {"Homo sapiens"}}, filtered: true},
		&stream{kind: model.KindWorkunit, filter: url.Values{"state": {model.WorkunitReady}}, filtered: true},
		&stream{kind: model.KindDataResource, filter: url.Values{"format": {"cel"}}, filtered: true},
	)
}

// scheduled is one call of a phase: its op class and on whose behalf.
type scheduled struct {
	op      opClass
	session int
}

// schedule draws n calls from the mix: the op by weight, the session
// from the scientist half or the expert/admin half with equal odds.
func (wl *workload) schedule(n int, seed int64, phase string, sessions []*session) []scheduled {
	var sci, oth []int
	for i, s := range sessions {
		if s.scoped {
			sci = append(sci, i)
		} else {
			oth = append(oth, i)
		}
	}
	total := 0
	for _, w := range wl.mix {
		total += w
	}
	h := uint64(seed)
	for _, ch := range phase {
		h = h*131 + uint64(ch)
	}
	r := &rng{s: h}
	out := make([]scheduled, n)
	for i := range out {
		x := r.intn(total)
		op := opClass(0)
		for ; x >= wl.mix[op]; op++ {
			x -= wl.mix[op]
		}
		group := sci
		if r.intn(2) == 0 {
			group = oth
		}
		out[i] = scheduled{op: op, session: group[r.intn(len(group))]}
	}
	return out
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
