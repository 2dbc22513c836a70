package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/model"
	"repro/internal/store"
)

// benchPassword is the credential the fixture gives every generated user.
const benchPassword = "bench-pw"

// manifest is what the benchmark knows about the generated population: the
// users it may log in as, and the record→project map it needs to tell a
// scientist's own rows from foreign ones. Slices are indexed by record id
// (index 0 unused); genload ids are dense from 1.
type manifest struct {
	Users            []manifestUser `json:"users"`
	SampleProject    []int64        `json:"sampleProject"`
	SampleName       []string       `json:"sampleName"`
	ExtractSample    []int64        `json:"extractSample"`
	WorkunitProject  []int64        `json:"workunitProject"`
	ResourceWorkunit []int64        `json:"resourceWorkunit"`
	Projects         int            `json:"projects"`
	Records          int            `json:"records"`
}

type manifestUser struct {
	Login    string  `json:"login"`
	ID       int64   `json:"id"`
	Role     string  `json:"role"`
	Projects []int64 `json:"projects"`
}

// projectOf resolves the project a record of kind belongs to, or 0 when
// the record is unknown to the fixture (created during the run).
func (m *manifest) projectOf(kind string, id int64) int64 {
	at := func(s []int64, i int64) int64 {
		if i <= 0 || i >= int64(len(s)) {
			return 0
		}
		return s[i]
	}
	switch kind {
	case model.KindSample:
		return at(m.SampleProject, id)
	case model.KindExtract:
		return at(m.SampleProject, at(m.ExtractSample, id))
	case model.KindWorkunit:
		return at(m.WorkunitProject, id)
	case model.KindDataResource:
		return at(m.WorkunitProject, at(m.ResourceWorkunit, id))
	case model.KindProject:
		return id
	}
	return 0
}

// runFixture generates the FGCZ January-2010 population into dir with the
// code under test (genload + the durable store), gives every user a
// password, snapshots, and writes the manifest next to it.
func runFixture(dir, manifestPath string) error {
	if _, err := genload.PopulateDir(dir, genload.FGCZJan2010, store.SyncOff); err != nil {
		return fmt.Errorf("fixture: populate: %w", err)
	}
	s, err := store.Open(dir, store.DurabilityOptions{Sync: store.SyncOff, SnapshotEvery: -1})
	if err != nil {
		return fmt.Errorf("fixture: reopen: %w", err)
	}
	defer s.Close()
	sys, err := core.NewWithStore(s, core.Options{DisableSearch: true, DisableAudit: true})
	if err != nil {
		return fmt.Errorf("fixture: wiring: %w", err)
	}
	m := &manifest{}
	err = sys.Update(func(tx *store.Tx) error {
		var perr error
		if err := tx.ScanRef(model.KindUser, func(r store.Record) bool {
			if perr = sys.Auth.SetPassword(tx, r.String("login"), benchPassword); perr != nil {
				return false
			}
			m.Users = append(m.Users, manifestUser{Login: r.String("login"), ID: r.ID(), Role: r.String("role")})
			return true
		}); err != nil {
			return err
		}
		return perr
	})
	if err != nil {
		return fmt.Errorf("fixture: passwords: %w", err)
	}
	byID := make(map[int64]int, len(m.Users))
	for i, u := range m.Users {
		byID[u.ID] = i
	}
	put := func(s *[]int64, id, v int64) {
		for int64(len(*s)) <= id {
			*s = append(*s, 0)
		}
		(*s)[id] = v
	}
	err = sys.View(func(tx *store.Tx) error {
		if err := tx.ScanRef(model.KindProject, func(r store.Record) bool {
			m.Projects++
			for _, uid := range r.IDs("members") {
				if i, ok := byID[uid]; ok {
					m.Users[i].Projects = append(m.Users[i].Projects, r.ID())
				}
			}
			return true
		}); err != nil {
			return err
		}
		if err := tx.ScanRef(model.KindSample, func(r store.Record) bool {
			put(&m.SampleProject, r.ID(), r.Int("project"))
			for int64(len(m.SampleName)) <= r.ID() {
				m.SampleName = append(m.SampleName, "")
			}
			m.SampleName[r.ID()] = r.String("name")
			return true
		}); err != nil {
			return err
		}
		if err := tx.ScanRef(model.KindExtract, func(r store.Record) bool {
			put(&m.ExtractSample, r.ID(), r.Int("sample"))
			return true
		}); err != nil {
			return err
		}
		if err := tx.ScanRef(model.KindWorkunit, func(r store.Record) bool {
			put(&m.WorkunitProject, r.ID(), r.Int("project"))
			return true
		}); err != nil {
			return err
		}
		return tx.ScanRef(model.KindDataResource, func(r store.Record) bool {
			put(&m.ResourceWorkunit, r.ID(), r.Int("workunit"))
			return true
		})
	})
	if err != nil {
		return fmt.Errorf("fixture: manifest scan: %w", err)
	}
	for _, t := range s.Tables() {
		m.Records += s.Count(t)
	}
	if err := s.Snapshot(); err != nil {
		return fmt.Errorf("fixture: snapshot: %w", err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(manifestPath, data, 0o644)
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return m, nil
}

// copyDir copies the regular files of a flat data directory; the store's
// data dir has no subdirectories. The LOCK file is skipped: it belongs to
// whichever process had the source open.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
