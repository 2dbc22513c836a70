// Package core assembles the complete B-Fabric system: the store, event
// bus, entity registry with the domain schema, and every service —
// vocabularies, tasks, workflows, storage, providers, import, application
// integration, search, audit and auth — wired together exactly as the
// examples, the portal and the benchmark harness consume them.
//
// # Wiring and recovery
//
// Wiring is idempotent over restored state: tables are ensured, not
// created, and secondary indexes are rebuilt from recovered rows. That is
// what lets New(Options{DataDir: ...}) recover a durable store (snapshot +
// WAL replay, see internal/store) and then re-register the schema on top.
// Each schema-registration step publishes a new store version atomically,
// so even a system wired while another component is already reading never
// exposes a half-built index.
//
// # Concurrency
//
// The store underneath is multi-versioned (see internal/store and
// docs/concurrency.md). For every service in this package that means:
//
//   - System.View pins the committed version current at the call and runs
//     entirely lock-free — portal page renders, similarity scans and
//     searches proceed at full speed while imports commit;
//   - System.Update serializes with other writers and publishes its
//     changes as one new version, so service-layer read-modify-write
//     logic (task claims, vocabulary merges, workflow steps) needs no
//     conflict handling;
//   - entity events are delivered inside the still-open write transaction
//     and must write only through it; state that has to follow commits
//     exactly, like the full-text index, is kept by the store itself
//     (store.CreateTextIndex), not by event observers.
//
// Services hold no store-wide locks of their own: all cross-service
// consistency derives from transactions pinning one version.
package core
