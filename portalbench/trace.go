package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	iofs "io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/portal"
	"repro/internal/repl"
	"repro/internal/store"
)

// requestIDHeader links a server span to the client span that caused it.
const requestIDHeader = "X-Request-Id"

// span is one timed interval at a layer boundary. Parent is the request
// id of the client span that caused it (empty for background work such
// as group-commit fsyncs). Times are Unix nanoseconds, comparable across
// the client and server processes on one machine.
type span struct {
	Name   string `json:"n"`
	Start  int64  `json:"s"`
	End    int64  `json:"e"`
	Parent string `json:"p,omitempty"`
	Status int    `json:"st,omitempty"`
	Bytes  int64  `json:"b,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children are counted once and parts of a
// child outside the parent are ignored.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, curS, curE int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curS, curE, open = v.s, v.e, true
		case v.s <= curE:
			curE = max(curE, v.e)
		default:
			covered += curE - curS
			curS, curE = v.s, v.e
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - time.Duration(covered)
}

// spanLog keeps spans in memory until the process exits.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// traceFile is what a traced server writes at exit.
type traceFile struct {
	Spans    []span           `json:"spans"`
	Counters map[string]int64 `json:"counters"`
}

// tracedHandler wraps the portal: one "portal.serve" span per request,
// with the response status and body size.
type tracedHandler struct {
	next http.Handler
	log  *spanLog
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now().UnixNano()
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.log.add(span{Name: "portal.serve", Start: start, End: time.Now().UnixNano(),
		Parent: r.Header.Get(requestIDHeader), Status: cw.status, Bytes: cw.n})
}

// timingFS is a store.FS over the real filesystem that records a span per
// WAL fsync and counts WAL bytes and snapshot installs.
type timingFS struct {
	log       *spanLog
	walBytes  atomic.Int64
	fsyncs    atomic.Int64
	snapshots atomic.Int64
}

var _ store.FS = (*timingFS)(nil)

func isWAL(name string) bool {
	b := filepath.Base(name)
	return strings.HasPrefix(b, "wal-") && strings.HasSuffix(b, ".log")
}

func (t *timingFS) OpenFile(name string, flag int, perm iofs.FileMode) (store.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, wal: isWAL(name)}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if filepath.Base(newpath) == "snapshot.gob" {
		t.snapshots.Add(1)
	}
	return nil
}

func (t *timingFS) Remove(name string) error                     { return os.Remove(name) }
func (t *timingFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (t *timingFS) Stat(name string) (iofs.FileInfo, error)      { return os.Stat(name) }
func (t *timingFS) ReadDir(name string) ([]iofs.DirEntry, error) { return os.ReadDir(name) }
func (t *timingFS) MkdirAll(name string, perm iofs.FileMode) error {
	return os.MkdirAll(name, perm)
}

type timingFile struct {
	*os.File
	fs  *timingFS
	wal bool
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now().UnixNano()
	err := f.File.Sync()
	if f.wal {
		f.fs.fsyncs.Add(1)
		f.fs.log.add(span{Name: "store.fsync", Start: start, End: time.Now().UnixNano()})
	}
	return err
}

// runTracedServer is the benchmark's own server main: it wires the same
// components cmd/bfabric does, with the same defaults, plus the handler
// and filesystem wrappers, and writes its spans and counters to -spans
// when it is stopped with SIGTERM.
func runTracedServer(args []string) error {
	fl := flag.NewFlagSet("serve-traced", flag.ContinueOnError)
	addr := fl.String("addr", "127.0.0.1:8077", "listen address")
	dataDir := fl.String("data-dir", "", "durable data directory")
	fsync := fl.String("fsync", "always", "WAL sync policy")
	replListen := fl.String("replicate-listen", "", "ship WAL frames to replicas from this address")
	replFrom := fl.String("replicate-from", "", "follow this primary as a read replica")
	spansPath := fl.String("spans", "", "write spans and counters here at exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	policy, err := store.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	spans := &spanLog{spans: make([]span, 0, 1<<16)}
	tfs := &timingFS{log: spans}
	sys, err := core.New(core.Options{
		DataDir: *dataDir, Sync: policy, SyncEvery: 25 * time.Millisecond,
		OnStoreError: func(err error) { log.Printf("traced: durability: %v", err) },
		FS:           tfs,
	})
	if err != nil {
		return fmt.Errorf("wiring system: %w", err)
	}
	bootSeq := sys.Store.CommitSeq()
	var follower *repl.Follower
	if *replFrom != "" {
		sys.Store.SetReplica(true)
		follower = repl.NewFollower(sys.Store, *replFrom, repl.FollowerOptions{Logf: log.Printf})
		follower.Start()
	}
	var shipper *repl.Server
	if *replListen != "" {
		shipper = repl.NewServer(sys.Store)
		if _, err := shipper.Start(*replListen); err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
	}
	cfg := portal.Config{RequestTimeout: 30 * time.Second, MaxInFlight: 256}
	if follower != nil {
		f := follower
		cfg.ReplicaStatus = func() any { return f.Report() }
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           &tracedHandler{next: portal.NewWithConfig(sys, cfg), log: spans},
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sigs
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	endSeq := sys.Store.CommitSeq()
	if shipper != nil {
		shipper.Close()
	}
	if follower != nil {
		follower.Close()
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if *spansPath == "" {
		return nil
	}
	spans.mu.Lock()
	defer spans.mu.Unlock()
	data, err := json.Marshal(traceFile{Spans: spans.spans, Counters: map[string]int64{
		"commits":   int64(endSeq - bootSeq),
		"fsyncs":    tfs.fsyncs.Load(),
		"walBytes":  tfs.walBytes.Load(),
		"snapshots": tfs.snapshots.Load(),
	}})
	if err != nil {
		return err
	}
	return os.WriteFile(*spansPath, data, 0o644)
}

func readTrace(path string) (*traceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tf := &traceFile{}
	if err := json.Unmarshal(data, tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tf, nil
}
