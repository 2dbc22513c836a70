package core

import (
	"time"

	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/auth"
	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/importer"
	"repro/internal/model"
	"repro/internal/provider"
	"repro/internal/search"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/tasks"
	"repro/internal/vocab"
	"repro/internal/workflow"
)

// Options tunes which optional subsystems a System carries. The zero value
// enables everything and keeps the store in memory.
type Options struct {
	// DisableSearch skips the search service and with it the store's
	// text indexes, which every commit would otherwise maintain (useful
	// for bulk-load benchmarks where indexing would dominate).
	DisableSearch bool
	// DisableAudit skips the audit log.
	DisableAudit bool

	// DataDir, when non-empty, makes the system durable: the store is
	// opened (and recovered) from this directory and every commit goes
	// through the write-ahead log. Empty keeps the classic in-memory
	// store.
	DataDir string
	// Sync is the WAL sync policy (store.SyncAlways unless set).
	Sync store.SyncPolicy
	// SyncEvery is the background fsync period under store.SyncInterval.
	SyncEvery time.Duration
	// SnapshotEvery is the WAL size in bytes that triggers a background
	// snapshot + truncation; 0 = store default (64 MiB), negative
	// disables automatic snapshots.
	SnapshotEvery int64
	// OnStoreError receives background durability failures (e.g. a
	// failing snapshot while the WAL keeps growing) so the host process
	// can log them as they happen instead of discovering them at Close.
	OnStoreError func(error)
	// FS substitutes the filesystem under the durable write path; nil
	// means the real one. A test seam: fault-injection tests run a whole
	// system over a store.FaultFS to prove degraded mode end to end.
	FS store.FS
}

// System is a fully wired B-Fabric instance.
type System struct {
	Store      *store.Store
	Bus        *events.Bus
	Registry   *entity.Registry
	DB         *model.DB
	Vocab      *vocab.Service
	Tasks      *tasks.Engine
	Workflows  *workflow.Engine
	Storage    *storage.Manager
	Providers  *provider.Hub
	Importer   *importer.Service
	Connectors *apps.Registry
	Executor   *apps.Executor
	Search     *search.Service // nil when disabled
	Audit      *audit.Log      // nil when disabled
	Auth       *auth.Service
}

// New builds a complete system. With Options.DataDir set the store is
// durable — recovered from the directory's snapshot + WAL on startup —
// otherwise it is a fresh in-memory store. Durable systems should be
// Closed to get the final WAL fsync.
func New(opts Options) (*System, error) {
	if opts.DataDir == "" {
		return NewWithStore(store.New(), opts)
	}
	s, err := store.Open(opts.DataDir, store.DurabilityOptions{
		Sync:          opts.Sync,
		SyncEvery:     opts.SyncEvery,
		SnapshotEvery: opts.SnapshotEvery,
		OnError:       opts.OnStoreError,
		FS:            opts.FS,
	})
	if err != nil {
		return nil, err
	}
	sys, err := NewWithStore(s, opts)
	if err != nil {
		s.Close()
		return nil, err
	}
	return sys, nil
}

// NewWithStore wires a system over an existing store — typically one just
// restored from a snapshot. Schema registration and index creation are
// idempotent over restored state.
func NewWithStore(s *store.Store, opts Options) (*System, error) {
	bus := events.NewBus()
	rg := entity.NewRegistry(s, bus)
	if err := model.RegisterSchema(rg); err != nil {
		return nil, err
	}
	db := model.NewDB(rg)
	sys := &System{
		Store:      s,
		Bus:        bus,
		Registry:   rg,
		DB:         db,
		Vocab:      vocab.New(rg, model.AnnotatedFields(rg)),
		Tasks:      tasks.New(s, bus),
		Workflows:  workflow.NewEngine(s),
		Storage:    storage.NewManager(),
		Providers:  provider.NewHub(),
		Connectors: apps.NewRegistry(),
		Auth:       auth.New(db),
	}
	if !opts.DisableAudit {
		sys.Audit = audit.New(s, bus)
	}
	imp, err := importer.New(db, sys.Storage, sys.Providers, sys.Workflows, sys.Tasks)
	if err != nil {
		return nil, err
	}
	sys.Importer = imp
	if err := sys.Connectors.Register(apps.NewRserveConnector()); err != nil {
		return nil, err
	}
	if err := sys.Connectors.Register(apps.NewShellConnector()); err != nil {
		return nil, err
	}
	ex, err := apps.NewExecutor(db, sys.Storage, sys.Connectors, sys.Workflows, sys.Tasks)
	if err != nil {
		return nil, err
	}
	sys.Executor = ex
	if !opts.DisableSearch {
		sys.Search = search.New(rg)
	}
	return sys, nil
}

// MustNew builds a system and panics on wiring errors; for examples and
// benchmarks where wiring cannot legitimately fail.
func MustNew(opts Options) *System {
	sys, err := New(opts)
	if err != nil {
		panic(err)
	}
	return sys
}

// Update runs fn in a read-write transaction on the system store. Update
// transactions serialize with each other on the store's writer mutex but
// never block readers, which continue on earlier versions.
func (sys *System) Update(fn func(tx *store.Tx) error) error {
	return sys.Store.Update(fn)
}

// View runs fn in a read-only transaction pinned to the committed store
// version current at the call. fn runs lock-free and sees one consistent
// snapshot regardless of concurrent writers.
func (sys *System) View(fn func(tx *store.Tx) error) error {
	return sys.Store.View(fn)
}

// Health reports the store's write-path health: OK while commits can be
// made durable, degraded (with the root cause and onset time) once the
// WAL or the disk under it has failed. Reads remain available either
// way. Lock-free; serving this from a health endpoint at any rate is
// free.
func (sys *System) Health() store.Health {
	return sys.Store.Health()
}

// Close shuts the system down. On durable systems this flushes and closes
// the write-ahead log; a cleanly closed system is fully durable regardless
// of sync policy. In-memory systems only reject further transactions.
func (sys *System) Close() error {
	return sys.Store.Close()
}
