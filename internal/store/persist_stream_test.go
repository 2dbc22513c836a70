package store_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/store"
)

// genloadStore builds (once) a scale-0.1 FGCZ-shaped population — ~7.6k
// entities across every kind, with the production indexes — for the
// snapshot streaming tests.
var genloadStore = sync.OnceValues(func() (*store.Store, error) {
	s := store.New()
	sys, err := core.NewWithStore(s, core.Options{DisableSearch: true, DisableAudit: true})
	if err != nil {
		return nil, err
	}
	return s, genload.Generate(sys, genload.FGCZJan2010.Scaled(0.1))
})

func mustGenloadStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := genloadStore()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// allocated runs fn and reports the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxWriteRecorder discards what it is given, remembering the largest
// single Write.
type maxWriteRecorder struct{ n, max int }

func (w *maxWriteRecorder) Write(p []byte) (int, error) {
	w.n += len(p)
	w.max = max(w.max, len(p))
	return len(p), nil
}

// TestSnapshotWriteStreams: writing a snapshot streams it from the
// pinned version — the writer never sees more than one row chunk plus
// one I/O buffer at a time (both 64 KiB targets), and encoding the whole
// store allocates only those buffers, not a whole-store intermediate.
func TestSnapshotWriteStreams(t *testing.T) {
	s := mustGenloadStore(t)
	var w maxWriteRecorder
	var err error
	alloc := allocated(func() { err = s.Save(&w) })
	if err != nil {
		t.Fatal(err)
	}
	const chunkPlusBuffer = 2 * 64 << 10
	if w.max > chunkPlusBuffer {
		t.Errorf("largest Write = %d bytes of a %d-byte snapshot, want <= %d", w.max, w.n, chunkPlusBuffer)
	}
	if alloc > 2<<20 {
		t.Errorf("Save allocated %d bytes for a %d-byte snapshot, want < 2 MiB", alloc, w.n)
	}
	t.Logf("snapshot %d bytes, largest write %d, allocated %d", w.n, w.max, alloc)
}

// TestSnapshotLoadAllocatesLiveState: Load decodes straight into the
// version it publishes, so nearly everything it allocates is still live
// afterwards. A decoder that materializes the whole snapshot first
// allocates well over twice what it keeps.
func TestSnapshotLoadAllocatesLiveState(t *testing.T) {
	var buf bytes.Buffer
	if err := mustGenloadStore(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s2 := store.New()
	if err := s2.Load(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s2)
	alloc := after.TotalAlloc - before.TotalAlloc
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if live <= 0 {
		t.Fatalf("live heap did not grow (%d bytes) loading a %d-byte snapshot", live, len(snap))
	}
	if ratio := float64(alloc) / float64(live); ratio > 1.5 {
		t.Errorf("Load allocated %d bytes to keep %d live (%.2fx), want <= 1.5x", alloc, live, ratio)
	}
	t.Logf("snapshot %d bytes: allocated %d, live %d (%.2fx)", len(snap), alloc, live, float64(alloc)/float64(live))
}

// TestSnapshotRoundTripByteIdentical: Save → Load → Save reproduces the
// snapshot byte for byte, the replication epoch included.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	src := mustGenloadStore(t)
	var a bytes.Buffer
	if err := src.Save(&a); err != nil {
		t.Fatal(err)
	}
	// Re-home the population on a later epoch so the round trip has a
	// non-default one to preserve.
	s := store.New()
	if err := s.Load(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdvanceEpoch(4); err != nil { // epoch 5
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := s.Save(&first); err != nil {
		t.Fatal(err)
	}
	s2 := store.New()
	if err := s2.Load(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := s2.Epoch(); got != 5 {
		t.Fatalf("loaded epoch = %d, want 5", got)
	}
	if err := s2.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("Save→Load→Save differs: %d vs %d bytes", first.Len(), second.Len())
	}
}

// TestLegacyGobSnapshotRefused: a data directory whose snapshot.gob was
// written by the gob-era codec is refused with the typed
// ErrSnapshotFormat — by Open, LoadFile and InspectDir alike — and the
// message names the file.
func TestLegacyGobSnapshotRefused(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-gob-snapshot.gob"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.gob")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, store.ErrSnapshotFormat) {
			t.Errorf("%s = %v, want ErrSnapshotFormat", what, err)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("%s error %q does not name %s", what, err, path)
		}
	}
	s, err := store.Open(dir, store.DurabilityOptions{Sync: store.SyncOff, SnapshotEvery: -1})
	if err == nil {
		s.Close()
	}
	check("Open", err)
	check("LoadFile", store.New().LoadFile(path))
	_, err = store.InspectDir(dir)
	check("InspectDir", err)
}
