package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Save serializes the entire committed state of the store to w.
func (s *Store) Save(w io.Writer) error {
	_, err := s.writeSnapshot(w)
	return err
}

// freeze captures a consistent cut of the whole store: under MVCC that is
// simply the current version, pinned with one atomic load. The version is
// immutable, so the snapshot encoder streams it out entirely outside any
// lock — commits proceed at full speed while a snapshot is being written.
func (s *Store) freeze() *version {
	return s.current.Load()
}

// writeSnapshot serializes the committed state and reports the commit
// sequence the snapshot captures. No lock is held at any point: the
// pinned version is an immutable snapshot by construction.
func (s *Store) writeSnapshot(w io.Writer) (uint64, error) {
	return writeSnapshotVersion(s.freeze(), s.epoch.Load(), w)
}

// Load replaces the contents of the store with a snapshot previously
// produced by Save. The store must be empty. The snapshot is decoded
// straight into a private version (snapcodec.go), published with one
// atomic store once the whole stream has checked out.
func (s *Store) Load(r io.Reader) error {
	nv, epoch, err := readSnapshot(r)
	if err != nil {
		return err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if len(s.current.Load().tables) != 0 {
		return fmt.Errorf("store: Load requires an empty store")
	}
	s.current.Store(nv)
	if epoch > 1 {
		s.epoch.Store(epoch) // adopt the producing store's epoch
	}
	return nil
}

// SaveFile writes the store snapshot atomically (write to a temp file,
// fsync, rename, fsync the directory) to the named file.
func (s *Store) SaveFile(path string) error {
	_, err := s.writeSnapshotFile(path)
	return err
}

// writeSnapshotFile is the shared atomic-write protocol behind SaveFile
// and Snapshot: encode to <path>.tmp, fsync, rename over path, fsync the
// directory so the rename itself is durable. It reports the commit
// sequence the snapshot captured.
func (s *Store) writeSnapshotFile(path string) (uint64, error) {
	return s.writeVersionSnapshotFile(path, s.freeze(), s.epoch.Load())
}

// writeVersionSnapshotFile runs the atomic-write protocol for one pinned
// (or not-yet-published) version. ResetFromSnapshot uses it to persist a
// resync — under the incoming snapshot's epoch — before the rebuilt
// version becomes reachable.
func (s *Store) writeVersionSnapshotFile(path string, v *version, epoch uint64) (uint64, error) {
	fsys := s.fileSystem()
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	seq, err := writeSnapshotVersion(v, epoch, f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	return seq, syncDir(fsys, filepath.Dir(path))
}

// LoadFile loads a snapshot from the named file into the empty store.
// Decode failures name the file; a file in a format this release does not
// read (a gob-era snapshot) fails with ErrSnapshotFormat.
func (s *Store) LoadFile(path string) error {
	f, err := s.fileSystem().OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Load(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
