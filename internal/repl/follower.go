package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Status is a point-in-time report of a follower's replication state.
type Status struct {
	// Connected reports a live session with the primary.
	Connected bool `json:"connected"`
	// LastApplied is the follower's committed seq — the asOf every read
	// served by this replica is at or above.
	LastApplied uint64 `json:"lastApplied"`
	// PrimarySeq is the primary's head seq as of the last frame or
	// heartbeat; LastApplied trails it by the replication lag.
	PrimarySeq uint64 `json:"primarySeq"`
	// LastContact is when the primary was last heard from. Together with
	// the heartbeat period it bounds time-based staleness: state this
	// replica serves is no more stale than (now - LastContact) plus one
	// heartbeat.
	LastContact time.Time `json:"lastContact,omitzero"`
	// Resyncs counts snapshot resyncs forced by divergence, gaps or
	// epoch fencing.
	Resyncs uint64 `json:"resyncs"`
	// Degraded reports that the replica's local durable path failed and
	// replication has STOPPED (the store refuses to apply): reads still
	// serve the last applied state, loudly stale.
	Degraded bool `json:"degraded"`
	// Epoch is the local store's replication epoch (fencing token).
	Epoch uint64 `json:"epoch"`
	// PrimaryEpoch is the primary's epoch as of the last handshake (zero
	// before the first one).
	PrimaryEpoch uint64 `json:"primaryEpoch,omitempty"`
	// Fenced reports that the last handshake was refused on epoch
	// grounds. Stale-side fencing clears itself (the next handshake
	// requests a snapshot and adopts the primary's epoch); ahead-side
	// fencing — this follower pointed at a zombie primary — persists
	// until the address serves the newer timeline.
	Fenced bool `json:"fenced,omitempty"`
}

// Lag returns the replication lag in commits, as last observed.
func (st Status) Lag() uint64 {
	if st.PrimarySeq > st.LastApplied {
		return st.PrimarySeq - st.LastApplied
	}
	return 0
}

// StatusReport is Status plus the derived fields operators actually act
// on — lag in commits and the age of the last primary contact — so
// surfaces like GET /api/replication and `bfabric-admin status -addr`
// don't make every consumer re-derive promotion-safety math from raw
// seqs and timestamps.
type StatusReport struct {
	Status
	// Role is "replica", or "primary" once the store has been promoted.
	Role string `json:"role"`
	// Lag is PrimarySeq - LastApplied in commits, as last observed.
	Lag uint64 `json:"lag"`
	// LastContactAgeMS is how long ago the primary was last heard from,
	// in milliseconds; -1 before the first contact. The staleness bound
	// is this plus one heartbeat period (docs/replication.md).
	LastContactAgeMS int64 `json:"lastContactAgeMs"`
}

// Report returns the follower's status with the derived fields filled
// in against the current clock.
func (f *Follower) Report() StatusReport {
	st := f.Status()
	r := StatusReport{Status: st, Role: "replica", Lag: st.Lag(), LastContactAgeMS: -1}
	if !f.s.IsReplica() {
		r.Role = "primary"
	}
	if !st.LastContact.IsZero() {
		r.LastContactAgeMS = time.Since(st.LastContact).Milliseconds()
	}
	return r
}

// FollowerOptions tunes a follower's connection management.
type FollowerOptions struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// RetryMin/RetryMax bound the reconnect backoff (default 50ms..3s).
	RetryMin, RetryMax time.Duration
	// ReadTimeout is the per-read liveness bound; the primary heartbeats
	// twice as often or better (default 5s).
	ReadTimeout time.Duration
	// Logf, when set, receives session lifecycle messages.
	Logf func(format string, args ...any)
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 3 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 5 * time.Second
	}
	return o
}

// Follower replicates a primary into a local store: it dials, hands the
// primary its last applied seq, applies whatever catch-up the primary
// chooses (frames or a snapshot) and then the live feed, reconnecting
// with backoff whenever the session drops. Torn messages, gaps and
// divergence never propagate: the follower drops the session and
// re-handshakes — asking for a full snapshot when its own state is the
// suspect — so its version chain is always a prefix of the primary's.
type Follower struct {
	s    *store.Store
	addr string
	opts FollowerOptions

	status  atomic.Pointer[Status]
	resync  atomic.Bool // next handshake must request a snapshot
	resyncs atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// errReplStopped ends the run loop for good (store degraded or closed).
var errReplStopped = errors.New("replication stopped")

// NewFollower returns a follower that will replicate the primary at addr
// into s. The caller is expected to have put s into replica mode
// (store.SetReplica) so local writes cannot interleave with the stream.
// Call Start to begin.
func NewFollower(s *store.Store, addr string, opts FollowerOptions) *Follower {
	f := &Follower{
		s:    s,
		addr: addr,
		opts: opts.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.status.Store(&Status{LastApplied: s.CommitSeq(), Epoch: s.Epoch()})
	return f
}

// Start launches the replication loop.
func (f *Follower) Start() {
	go f.run()
}

// Close stops replication and waits for the loop to exit. The store is
// left as-is: still serving its last applied state.
func (f *Follower) Close() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
}

// Status returns the current replication status.
func (f *Follower) Status() Status { return *f.status.Load() }

// WaitForSeq blocks until the follower has applied at least seq, the
// timeout passes, or replication stops.
func (f *Follower) WaitForSeq(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := f.Status()
		if st.LastApplied >= seq {
			return nil
		}
		if st.Degraded {
			return fmt.Errorf("repl: follower degraded at seq %d", st.LastApplied)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: timed out waiting for seq %d (at %d)", seq, st.LastApplied)
		}
		select {
		case <-f.stop:
			return fmt.Errorf("repl: follower closed at seq %d", f.Status().LastApplied)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// setStatus publishes a modified copy of the status (single-writer: only
// the run loop calls it).
func (f *Follower) setStatus(mut func(*Status)) {
	st := *f.status.Load()
	mut(&st)
	st.Resyncs = f.resyncs.Load()
	st.Epoch = f.s.Epoch()
	f.status.Store(&st)
}

func (f *Follower) run() {
	defer close(f.done)
	defer f.setStatus(func(st *Status) { st.Connected = false })
	backoff := f.opts.RetryMin
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		handshook, err := f.session()
		f.setStatus(func(st *Status) { st.Connected = false })
		if errors.Is(err, errReplStopped) {
			f.logf("repl: follower stopped: store no longer accepts replication")
			return
		}
		select {
		case <-f.stop:
			return
		default:
		}
		if err != nil {
			f.logf("repl: session: %v", err)
		}
		if handshook {
			// The primary accepted us, so the address and the epoch are
			// right; whatever ended the session (torn feed, timeout), the
			// next attempt should come quickly. A failed dial or a fenced
			// refusal keeps the backoff growing.
			backoff = f.opts.RetryMin
		}
		select {
		case <-f.stop:
			return
		case <-time.After(jitter(rng, backoff)):
		}
		backoff *= 2
		if backoff > f.opts.RetryMax {
			backoff = f.opts.RetryMax
		}
	}
}

// jitter spreads a backoff over [d/2, d], so a fleet of followers cut
// off by the same event (a primary restart, a healed partition) does
// not re-dial in lockstep, session after session.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d / 2)
	return time.Duration(half + rng.Int63n(half+1))
}

// session runs one connection to the primary: handshake, then apply
// messages until something breaks. handshook reports that the primary
// accepted the handshake (statusOK) — the signal that resets the
// reconnect backoff.
func (f *Follower) session() (handshook bool, err error) {
	conn, err := net.DialTimeout("tcp", f.addr, f.opts.DialTimeout)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	// Ensure a Close during a blocking read tears the session down; the
	// watcher exits with the session, so reconnects don't accumulate them.
	sessionDone := make(chan struct{})
	defer close(sessionDone)
	go func() {
		select {
		case <-f.stop:
			conn.Close()
		case <-sessionDone:
		}
	}()

	var flags byte
	if f.resync.Load() {
		flags |= flagSnapshot
	}
	localEpoch := f.s.Epoch()
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := writeHello(conn, f.s.CommitSeq(), localEpoch, flags); err != nil {
		return false, err
	}
	br := bufio.NewReaderSize(conn, 256<<10)
	conn.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
	replyStatus, head, primaryEpoch, err := readHelloReply(br)
	if err != nil {
		return false, err
	}
	switch replyStatus {
	case statusOK:
	case statusFencedStale:
		// Our timeline is the abandoned one. The sanctioned way back in is
		// a wholesale snapshot resync, which adopts the primary's epoch.
		f.resync.Store(true)
		f.resyncs.Add(1)
		f.setStatus(func(st *Status) {
			st.Fenced = true
			st.PrimaryEpoch = primaryEpoch
		})
		return false, &store.FencedEpochError{Local: localEpoch, Remote: primaryEpoch}
	case statusFencedAhead:
		// The "primary" is a zombie from an epoch we have already left
		// behind. Do NOT resync — that would adopt the dead timeline.
		// Keep retrying (backing off) until the address serves the newer
		// one; the operator re-points or restarts the zombie meanwhile.
		f.setStatus(func(st *Status) {
			st.Fenced = true
			st.PrimaryEpoch = primaryEpoch
		})
		return false, fmt.Errorf("repl: primary at %s is a fenced zombie: %w",
			f.addr, &store.FencedEpochError{Local: localEpoch, Remote: primaryEpoch})
	default:
		return false, fmt.Errorf("repl: unknown handshake status %d", replyStatus)
	}
	f.setStatus(func(st *Status) {
		st.Connected = true
		st.PrimarySeq = head
		st.PrimaryEpoch = primaryEpoch
		st.Fenced = false
		st.LastContact = time.Now()
	})

	for {
		conn.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
		typ, payload, err := readMsg(br)
		if err != nil {
			return true, err
		}
		switch typ {
		case msgFrame:
			seq, err := f.s.ApplyReplicated(payload)
			if err != nil {
				return true, f.applyError(err)
			}
			f.setStatus(func(st *Status) {
				st.LastApplied = seq
				if seq > st.PrimarySeq {
					st.PrimarySeq = seq
				}
				st.LastContact = time.Now()
			})
		case msgHeartbeat:
			if len(payload) != 8 {
				return true, fmt.Errorf("repl: malformed heartbeat")
			}
			head := leU64(payload)
			f.setStatus(func(st *Status) {
				st.PrimarySeq = head
				st.LastContact = time.Now()
			})
		case msgSnapBegin:
			if len(payload) != 8 {
				return true, fmt.Errorf("repl: malformed snapshot begin")
			}
			if err := f.receiveSnapshot(conn, br, leU64(payload)); err != nil {
				return true, err
			}
		default:
			return true, fmt.Errorf("repl: unexpected message type %q", typ)
		}
	}
}

// applyError classifies an ApplyReplicated failure into the follower's
// reaction: stop for good (degraded/closed — the store must not be fed
// any further), plain reconnect (a gap the primary will fill from its
// log), or snapshot resync (divergence or a corrupt frame).
func (f *Follower) applyError(err error) error {
	switch {
	case errors.Is(err, store.ErrDegraded), errors.Is(err, store.ErrClosed):
		f.setStatus(func(st *Status) { st.Degraded = errors.Is(err, store.ErrDegraded) })
		f.logf("repl: apply failed permanently: %v", err)
		return errReplStopped
	case errors.Is(err, store.ErrReplicaGap):
		return err // reconnect; the handshake advertises our seq and the log fills the gap
	default:
		// Corrupt or diverged: only a wholesale snapshot is trustworthy.
		f.resync.Store(true)
		f.resyncs.Add(1)
		return err
	}
}

// receiveSnapshot streams snapshot chunks into ResetFromSnapshot. The
// decode runs concurrently off an io.Pipe and builds the new version
// straight from the stream, so the whole snapshot — as bytes or in any
// decoded intermediate form — is never buffered in memory.
func (f *Follower) receiveSnapshot(conn net.Conn, br *bufio.Reader, seq uint64) error {
	pr, pw := io.Pipe()
	type result struct {
		seq uint64
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		got, err := f.s.ResetFromSnapshot(pr)
		if err != nil {
			pr.CloseWithError(err) // unblock the chunk writer
		}
		resCh <- result{got, err}
	}()

	var streamErr error
	for streamErr == nil {
		conn.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
		typ, payload, err := readMsg(br)
		if err != nil {
			streamErr = err
			break
		}
		switch typ {
		case msgSnapChunk:
			if _, err := pw.Write(payload); err != nil {
				streamErr = err
			}
		case msgSnapEnd:
			pw.Close()
			res := <-resCh
			if res.err != nil {
				return f.applyError(res.err)
			}
			if res.seq != seq {
				// The stream's framing and the snapshot's own header
				// disagree — treat as torn.
				return fmt.Errorf("repl: snapshot seq mismatch: header %d, payload %d", seq, res.seq)
			}
			f.resync.Store(false)
			f.setStatus(func(st *Status) {
				st.LastApplied = res.seq
				if res.seq > st.PrimarySeq {
					st.PrimarySeq = res.seq
				}
				st.LastContact = time.Now()
			})
			return nil
		case msgHeartbeat:
			// Tolerated mid-snapshot even though the current primary never
			// interleaves one.
		default:
			streamErr = fmt.Errorf("repl: unexpected message %q inside snapshot", typ)
		}
	}
	pw.CloseWithError(streamErr)
	res := <-resCh
	if res.err != nil && (errors.Is(res.err, store.ErrDegraded) || errors.Is(res.err, store.ErrClosed)) {
		return f.applyError(res.err)
	}
	return streamErr
}

func leU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
