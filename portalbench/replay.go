package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
)

// replayInputs are the socket phase's recorded requests, re-run against
// single layers after the phase.
type replayInputs struct {
	Browse []browseInput `json:"browse"`
	Search []searchInput `json:"search"`
}

type browseInput struct {
	Login  string      `json:"login"`
	Kind   string      `json:"kind"`
	Filter []filterArg `json:"filter,omitempty"`
	From   int64       `json:"from"`
	Next   int64       `json:"next"`
}

type filterArg struct {
	Field string `json:"field"`
	Value string `json:"value"`
}

type searchInput struct {
	Login string `json:"login"`
	Q     string `json:"q"`
}

// replayResult is the layer metrics a replay child prints.
type replayResult map[string]float64

// runReplay times calls into the store, auth, search and replication
// layers, single-threaded, on scratch copies of the run's directories:
//
//	-postrun   copy of the primary's data dir after the socket phase
//	-fixture   copy of the population before the phase (apply target)
//	-inputs    the recorded browse and search inputs
//	-manifest  the population manifest (record -> project map)
func runReplay(args []string) error {
	fl := flag.NewFlagSet("replay", flag.ContinueOnError)
	postrun := fl.String("postrun", "", "copy of the post-run primary data dir")
	fixture := fl.String("fixture", "", "copy of the pre-run population data dir")
	inputsPath := fl.String("inputs", "", "recorded inputs JSON")
	manifestPath := fl.String("manifest", "", "population manifest")
	if err := fl.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*inputsPath)
	if err != nil {
		return err
	}
	var in replayInputs
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	m, err := loadManifest(*manifestPath)
	if err != nil {
		return err
	}
	out := replayResult{}

	info, err := store.InspectDir(*fixture)
	if err != nil {
		return err
	}
	if m.Records > 0 {
		out["store.snapshot_bytes_per_record"] = float64(info.SnapshotSize) / float64(m.Records)
	}

	start := time.Now()
	s, err := store.Open(*postrun, store.DurabilityOptions{Sync: store.SyncAlways})
	if err != nil {
		return fmt.Errorf("open post-run dir: %w", err)
	}
	out["store.open_s"] = time.Since(start).Seconds()
	defer s.Close()

	if err := replayApply(s, *fixture, out); err != nil {
		return err
	}
	sys, err := core.NewWithStore(s, core.Options{})
	if err != nil {
		return err
	}
	replayBrowse(sys, m, in.Browse, out)
	if err := replaySearch(sys, in.Search, out); err != nil {
		return err
	}
	if err := replayCommit(sys, out); err != nil {
		return err
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// replayApply feeds the post-run WAL frames the fixture has not seen
// through Store.ApplyReplicated on a durable copy of the fixture, as a
// follower would apply them.
func replayApply(primary *store.Store, fixtureDir string, out replayResult) error {
	f, err := store.Open(fixtureDir, store.DurabilityOptions{Sync: store.SyncAlways})
	if err != nil {
		return fmt.Errorf("open fixture copy: %w", err)
	}
	defer f.Close()
	f.SetReplica(true)
	d := &dist{}
	err = primary.WALFrames(f.CommitSeq()+1, func(_ uint64, payload []byte) error {
		t := time.Now()
		if _, err := f.ApplyReplicated(payload); err != nil {
			return err
		}
		d.add(float64(time.Since(t)) / float64(time.Microsecond))
		return nil
	})
	if errors.Is(err, store.ErrSeqGone) {
		// A snapshot truncated the log during the run; nothing to replay.
		err = nil
	}
	if err != nil {
		return fmt.Errorf("apply replay: %w", err)
	}
	out["repl.frames"] = float64(d.n())
	if d.n() > 0 {
		out["repl.apply_us_per_frame"] = d.quantile(0.5)
	}
	return nil
}

// replayBrowse re-runs each recorded page: the store query over the page's
// cursor span (store.query_us.browse, every page) and, for scientists'
// pages, one Auth.CanAccessProjectUser call per distinct project among the
// examined rows (auth.access_us). The projects come from the manifest,
// outside the timer; rows the run created are not in it and are skipped.
func replayBrowse(sys *core.System, m *manifest, inputs []browseInput, out replayResult) {
	q, a := &dist{}, &dist{}
	for _, in := range inputs {
		var u model.User
		var recs []store.Record
		_ = sys.View(func(tx *store.Tx) error {
			var err error
			if u, err = sys.DB.UserByLogin(tx, in.Login); err != nil {
				return err
			}
			query := store.Query{Table: in.Kind}
			for _, f := range in.Filter {
				var v any = f.Value
				if n, err := strconv.ParseInt(f.Value, 10, 64); err == nil && f.Field == "project" {
					v = n
				}
				query.Where = append(query.Where, store.Eq(f.Field, v))
			}
			if in.From > 0 {
				query.Cursor = in.From - 1
			}
			t := time.Now()
			rows, err := tx.Query(query)
			if err != nil {
				return err
			}
			for rows.Next() {
				rec := rows.Record()
				if in.Next != 0 && rec.ID() >= in.Next {
					break
				}
				recs = append(recs, rec)
			}
			q.add(float64(time.Since(t)) / float64(time.Microsecond))

			if u.Role == model.RoleAdmin || u.Role == model.RoleExpert {
				return rows.Err() // the portal skips the scope filter for them
			}
			seen := map[int64]bool{}
			var projects []int64
			for _, rec := range recs {
				if p := m.projectOf(in.Kind, rec.ID()); p > 0 && !seen[p] {
					seen[p] = true
					projects = append(projects, p)
				}
			}
			t = time.Now()
			for _, p := range projects {
				sys.Auth.CanAccessProjectUser(tx, u, p)
			}
			a.add(float64(time.Since(t)) / float64(time.Microsecond))
			return rows.Err()
		})
	}
	// Means, not medians: scientists' pages scan up to 100 times the rows
	// of experts' pages, and a median of that mixture flips between them.
	out["store.query_us.browse"] = mean(q)
	if a.n() > 0 {
		out["auth.access_us"] = mean(a)
	}
}

// replaySearch times queries on a warm index, then the flush cost of
// documents dirtied by fresh writes.
func replaySearch(sys *core.System, inputs []searchInput, out replayResult) error {
	if len(inputs) == 0 {
		return errors.New("replay: no recorded searches")
	}
	if _, err := sys.Search.Search("", inputs[0].Q); err != nil { // the lazy full index build
		return err
	}
	d := &dist{}
	for _, in := range inputs {
		t := time.Now()
		if _, err := sys.Search.Search(in.Login, in.Q); err != nil {
			return err
		}
		d.add(float64(time.Since(t)) / float64(time.Microsecond))
	}
	queryUS := d.quantile(0.5)
	out["search.query_us"] = queryUS

	const rounds, docs = 7, 64
	f := &dist{}
	for r := 0; r < rounds; r++ {
		if err := sys.Update(func(tx *store.Tx) error {
			for i := 0; i < docs; i++ {
				if _, err := sys.DB.CreateSample(tx, "replay", model.Sample{
					Name: fmt.Sprintf("replay-flush-%d-%d", r, i), Project: 1,
				}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		q := inputs[r%len(inputs)]
		t := time.Now()
		if _, err := sys.Search.Search(q.Login, q.Q); err != nil {
			return err
		}
		f.add((float64(time.Since(t))/float64(time.Microsecond) - queryUS) / docs)
	}
	out["search.flush_us_per_doc"] = f.quantile(0.5)
	return nil
}

// replayCommit times single-sample commits (Store.Update + CreateSample),
// fsync included, on the scratch copy.
func replayCommit(sys *core.System, out replayResult) error {
	d := &dist{}
	for i := 0; i < 60; i++ {
		t := time.Now()
		if err := sys.Update(func(tx *store.Tx) error {
			_, err := sys.DB.CreateSample(tx, "replay", model.Sample{Name: fmt.Sprintf("replay-commit-%d", i), Project: 1})
			return err
		}); err != nil {
			return err
		}
		d.add(float64(time.Since(t)) / float64(time.Microsecond))
	}
	out["store.commit_us"] = d.quantile(0.5)
	return nil
}
