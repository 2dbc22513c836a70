package store

import "errors"

// Sentinel errors returned by the store. Callers should match them with
// errors.Is since they are usually wrapped with context.
var (
	// ErrNotFound is returned when a record does not exist.
	ErrNotFound = errors.New("record not found")
	// ErrNoTable is returned when a table does not exist.
	ErrNoTable = errors.New("no such table")
	// ErrExists is returned when creating something that already exists.
	ErrExists = errors.New("already exists")
	// ErrUnique is returned when a write violates a unique index.
	ErrUnique = errors.New("unique constraint violation")
	// ErrReadOnly is returned when writing inside a read-only transaction.
	ErrReadOnly = errors.New("read-only transaction")
	// ErrClosed is returned when the store has been closed.
	ErrClosed = errors.New("store closed")
	// ErrBadValue is returned for unsupported field value types.
	ErrBadValue = errors.New("unsupported value type")
	// ErrTxDone is returned when using a finished transaction.
	ErrTxDone = errors.New("transaction already finished")
	// ErrConflict is returned by Tx.Commit on an optimistic (Begin)
	// transaction when another transaction committed a change to a record
	// this one wrote or deleted — or claimed a serial id this one also
	// claimed — after this transaction pinned its snapshot
	// (first-committer-wins). Retry by re-running the transaction on a
	// fresh snapshot, or use Update, which serializes and cannot conflict.
	ErrConflict = errors.New("write conflict")
	// ErrBadQuery is returned by Tx.Query/Tx.Explain for a query that is
	// malformed: an empty predicate field, an unindexable or incomparable
	// comparand, a negative limit or cursor, or a keyset cursor combined
	// with non-id ordering.
	ErrBadQuery = errors.New("bad query")
	// ErrCorrupt is returned when recovery finds damage it cannot repair
	// without losing committed transactions from the middle of the
	// history (a torn tail on the newest WAL segment is repaired, not
	// reported).
	ErrCorrupt = errors.New("corrupt data directory")
	// ErrSnapshotFormat is returned when a snapshot is not in the
	// format this release reads (BFSNAP02, see snapcodec.go) — notably a
	// gob-encoded snapshot.gob written before the streaming codec. Such
	// files are refused, never guessed at; the message names the file.
	ErrSnapshotFormat = errors.New("unsupported snapshot format")
	// ErrReplica is returned by every local write path of a store placed
	// in replica mode with SetReplica: the only writes a replica accepts
	// are replicated frames (ApplyReplicated) and snapshot resyncs
	// (ResetFromSnapshot). Writers must be routed to the primary.
	ErrReplica = errors.New("read-only replica")
	// ErrReplicaGap is returned by ApplyReplicated when a frame skips
	// ahead of the replica's next expected commit sequence. The replica's
	// state is untouched; the caller must re-fetch the missing frames (or
	// resync from a snapshot) rather than apply out of order.
	ErrReplicaGap = errors.New("replicated frame out of order")
	// ErrSeqGone is returned by WALFrames when the requested start
	// sequence has been truncated out of the log by a snapshot. Callers
	// catch up from a snapshot instead.
	ErrSeqGone = errors.New("wal sequence truncated")
	// ErrFencedEpoch is the fencing sentinel: a replication peer (or an
	// incoming snapshot) presented an epoch older than this store's. The
	// concrete error is a *FencedEpochError carrying both epochs; see
	// epoch.go. A fenced node must not serve or absorb frames across the
	// epoch boundary — it resyncs from a snapshot of the newer timeline.
	ErrFencedEpoch = errors.New("replication epoch fenced")
)
