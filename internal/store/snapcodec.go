package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// Snapshot codec (BFSNAP02). One writer and one reader serve every path
// that moves the whole store: boot (Open → LoadFile), background and
// explicit snapshots, backup sources, the replication resync stream
// (PinnedSnapshot) and its receiving end (ResetFromSnapshot). The writer
// streams straight from a pinned *version and the reader builds straight
// into a private *version, so no whole-store intermediate form exists on
// either side: memory beyond the store itself is one row chunk plus the
// I/O buffers. The layout:
//
//	snapshot := magic "BFSNAP02", seq u64, epoch u64, uvarint nTables,
//	            table...                     (tables in name order)
//	table    := str name, varint nextID, uvarint nIndexes,
//	            (str field, u8 unique)...    (indexes in field order)
//	            chunk..., uvarint 0          (a zero-row chunk ends it)
//	chunk    := uvarint rows (>0), uvarint len, payload[len],
//	            u32 CRC32-C(payload)
//	payload  := row...                       (ids ascending)
//	row      := uvarint id delta (>0), uvarint nFields, field...
//	field    := keyref, kind u8, value       (keys in sorted order)
//	keyref   := 0, str key                   (appends key to the table's
//	                                          dictionary)
//	          | uvarint dictionary index + 1
//	value    := kindString     str
//	          | kindInt        varint
//	          | kindFloat      u64 (IEEE 754 bits)
//	          | kindBool       u8 (0 or 1)
//	          | kindTime       str (time.Time MarshalBinary)
//	          | kindIntList    uvarint n, n×varint
//	          | kindStringList uvarint n, n×str
//	str      := uvarint len, len bytes
//
// The id delta is relative to the previous row of the same table (the
// first row's to 0). Fixed-width integers are little-endian; kind tags
// are the WAL codec's. The encoding is deterministic — tables, index
// definitions, rows and field keys are all emitted in sorted order and
// the dictionary is assigned in first-use order — so two stores holding
// the same logical state at the same seq and epoch produce byte-identical
// snapshots (the property replica convergence tests pin on; the epoch is
// part of the state, so a store still on an older timeline's epoch has,
// by definition, not converged).
//
// Decoding is strict: every count is checked against the bytes left in
// its chunk, each chunk's CRC is verified before its rows are applied,
// and non-ascending ids or keys, unknown kinds or dictionary references,
// non-canonical bools, unique-index violations and trailing bytes are all
// corruption (ErrCorrupt). A stream that does not start with the magic is
// refused with ErrSnapshotFormat — notably the gob snapshots written
// before this codec, which keep the same file name.

const (
	snapMagic      = "BFSNAP02"
	snapHeaderSize = len(snapMagic) + 8 + 8
	// snapChunkTarget is the payload size at which the writer closes a
	// row chunk, and the size of both sides' I/O buffers. A row larger
	// than the target gets a chunk of its own.
	snapChunkTarget = 64 << 10
	// snapReadStep caps how much of a declared length the reader
	// allocates before the bytes have actually arrived, so a corrupt
	// length costs at most one step, not the length.
	snapReadStep = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapMaxID bounds the record ids the reader accepts. A table spends
// one chunk pointer per 128 ids of id space, so an id is memory the
// reader must grant; fuzz targets lower the bound to keep a few crafted
// bytes from demanding gigabytes.
var snapMaxID int64 = math.MaxInt64

// corruptf reports snapshot damage, wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("store: snapshot: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// writeSnapshotVersion streams one pinned version under the given
// replication epoch to w and reports the commit sequence it captured.
func writeSnapshotVersion(v *version, epoch uint64, w io.Writer) (uint64, error) {
	sw := &snapWriter{bw: bufio.NewWriterSize(w, snapChunkTarget), dict: make(map[string]uint64)}
	names := v.tableNames()
	b := append(sw.scratch[:0], snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, v.seq)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.AppendUvarint(b, uint64(len(names)))
	if _, err := sw.bw.Write(b); err != nil {
		return 0, err
	}
	for _, name := range names {
		if err := sw.table(v.tables[name]); err != nil {
			return 0, err
		}
	}
	return v.seq, sw.bw.Flush()
}

// snapWriter carries the writer's reusable buffers across tables and
// chunks: encoding a whole store allocates only these.
type snapWriter struct {
	bw      *bufio.Writer
	scratch [64]byte
	chunk   []byte // the open chunk's payload
	rows    int    // rows in the open chunk
	prevID  int64
	keys    []string          // one row's sorted field keys
	dict    map[string]uint64 // this table's key dictionary
}

func (sw *snapWriter) table(t *table) error {
	fields := make([]string, 0, len(t.indexes))
	for f := range t.indexes {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	b := appendUstr(sw.scratch[:0], t.name)
	b = binary.AppendVarint(b, t.nextID)
	b = binary.AppendUvarint(b, uint64(len(fields)))
	for _, f := range fields {
		b = appendUstr(b, f)
		b = appendBool(b, t.indexes[f].unique)
	}
	if _, err := sw.bw.Write(b); err != nil {
		return err
	}
	clear(sw.dict)
	sw.prevID = 0
	it := t.iter(0, 0)
	for id, r := it.next(); id != 0; id, r = it.next() {
		if err := sw.row(id, r); err != nil {
			return err
		}
		if len(sw.chunk) >= snapChunkTarget {
			if err := sw.flushChunk(); err != nil {
				return err
			}
		}
	}
	if err := sw.flushChunk(); err != nil {
		return err
	}
	return sw.bw.WriteByte(0) // the zero-row chunk that ends the table
}

func (sw *snapWriter) row(id int64, r Record) error {
	b := binary.AppendUvarint(sw.chunk, uint64(id-sw.prevID))
	sw.prevID = id
	keys := sw.keys[:0]
	for k := range r {
		if k != IDField {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	sw.keys = keys
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		if ref, ok := sw.dict[k]; ok {
			b = binary.AppendUvarint(b, ref+1)
		} else {
			b = appendUstr(append(b, 0), k)
			sw.dict[k] = uint64(len(sw.dict))
		}
		var err error
		if b, err = appendSnapValue(b, k, r[k]); err != nil {
			return err
		}
	}
	sw.chunk = b
	sw.rows++
	return nil
}

func (sw *snapWriter) flushChunk() error {
	if sw.rows == 0 {
		return nil
	}
	b := binary.AppendUvarint(sw.scratch[:0], uint64(sw.rows))
	b = binary.AppendUvarint(b, uint64(len(sw.chunk)))
	if _, err := sw.bw.Write(b); err != nil {
		return err
	}
	if _, err := sw.bw.Write(sw.chunk); err != nil {
		return err
	}
	b = binary.LittleEndian.AppendUint32(sw.scratch[:0], crc32.Checksum(sw.chunk, castagnoli))
	if _, err := sw.bw.Write(b); err != nil {
		return err
	}
	sw.chunk, sw.rows = sw.chunk[:0], 0
	return nil
}

func appendUstr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendSnapValue encodes one record value: its kind tag, then the value
// with varint integers and uvarint lengths.
func appendSnapValue(b []byte, key string, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		b = appendUstr(append(b, kindString), x)
	case int64:
		b = binary.AppendVarint(append(b, kindInt), x)
	case float64:
		b = binary.LittleEndian.AppendUint64(append(b, kindFloat), math.Float64bits(x))
	case bool:
		b = appendBool(append(b, kindBool), x)
	case time.Time:
		// MarshalBinary output is 15 or 16 bytes, so its uvarint length
		// is one byte, patched in after appending in place.
		at := len(b) + 1
		b, err := x.AppendBinary(append(b, kindTime, 0))
		if err != nil {
			return nil, fmt.Errorf("store: encoding time field %q: %w", key, err)
		}
		b[at] = byte(len(b) - at - 1)
		return b, nil
	case []int64:
		b = binary.AppendUvarint(append(b, kindIntList), uint64(len(x)))
		for _, n := range x {
			b = binary.AppendVarint(b, n)
		}
	case []string:
		b = binary.AppendUvarint(append(b, kindStringList), uint64(len(x)))
		for _, s := range x {
			b = appendUstr(b, s)
		}
	default:
		return nil, fmt.Errorf("store: field %q has %T: %w", key, v, ErrBadValue)
	}
	return b, nil
}

// readSnapshotHeader reads and checks the fixed header: magic, seq and
// epoch. A full-length header with another magic is ErrSnapshotFormat.
func readSnapshotHeader(r io.Reader) (seq, epoch uint64, err error) {
	var hdr [snapHeaderSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if n >= len(snapMagic) && string(hdr[:len(snapMagic)]) != snapMagic {
		return 0, 0, fmt.Errorf("store: snapshot starts %q, not %q (a gob-era snapshot?): %w",
			hdr[:len(snapMagic)], snapMagic, ErrSnapshotFormat)
	}
	if err != nil {
		return 0, 0, corruptf("truncated header (%d bytes)", n)
	}
	seq = binary.LittleEndian.Uint64(hdr[len(snapMagic):])
	epoch = binary.LittleEndian.Uint64(hdr[len(snapMagic)+8:])
	if epoch == 0 {
		return 0, 0, corruptf("epoch 0")
	}
	return seq, epoch, nil
}

// readSnapshot decodes a snapshot stream into a fresh, fully-indexed
// version and returns it with the snapshot's epoch. The version is
// private to the caller until it publishes it; nothing is returned
// unless the whole stream, trailing bytes included, checked out.
func readSnapshot(r io.Reader) (*version, uint64, error) {
	sr := &snapReader{br: bufio.NewReaderSize(r, snapChunkTarget)}
	seq, epoch, err := readSnapshotHeader(sr.br)
	if err != nil {
		return nil, 0, err
	}
	nTables, err := sr.uvarint()
	if err != nil {
		return nil, 0, err
	}
	nv := &version{seq: seq, tables: make(map[string]*table)}
	prev := ""
	for i := uint64(0); i < nTables; i++ {
		t, err := sr.table(seq)
		if err != nil {
			return nil, 0, err
		}
		if i > 0 && t.name <= prev {
			return nil, 0, corruptf("table %q out of order after %q", t.name, prev)
		}
		prev = t.name
		nv.tables[t.name] = t
	}
	if _, err := sr.br.ReadByte(); err != io.EOF {
		return nil, 0, corruptf("trailing bytes after the last table")
	}
	return nv, epoch, nil
}

// snapReader carries the reader's reusable buffers.
type snapReader struct {
	br   *bufio.Reader
	buf  []byte   // the current chunk payload or string
	dict []string // the current table's key dictionary
}

func (sr *snapReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return 0, corruptf("reading uvarint: %v", err)
	}
	return v, nil
}

// read returns the next n bytes of the stream in a buffer reused by the
// next call. The buffer grows only as bytes arrive (snapReadStep at a
// time), so a corrupt length cannot become a huge allocation.
func (sr *snapReader) read(n uint64) ([]byte, error) {
	if n > walMaxFrameSize {
		return nil, corruptf("implausible length %d", n)
	}
	b := sr.buf[:0]
	for uint64(len(b)) < n {
		step := min(int(n)-len(b), snapReadStep)
		b = slices.Grow(b, step)
		k, err := io.ReadFull(sr.br, b[len(b):len(b)+step])
		b = b[:len(b)+k]
		if err != nil {
			return nil, corruptf("truncated: %d of %d bytes", len(b), n)
		}
	}
	sr.buf = b
	return b, nil
}

func (sr *snapReader) str() (string, error) {
	n, err := sr.uvarint()
	if err != nil {
		return "", err
	}
	b, err := sr.read(n)
	return string(b), err
}

// table decodes one table: header, index definitions, then row chunks
// until the zero-row terminator, each chunk CRC-checked before any of
// its rows reaches the table.
func (sr *snapReader) table(seq uint64) (*table, error) {
	name, err := sr.str()
	if err != nil {
		return nil, err
	}
	nextID, err := binary.ReadVarint(sr.br)
	if err != nil {
		return nil, corruptf("table %q: reading nextID: %v", name, err)
	}
	if nextID < 1 || nextID-1 > snapMaxID {
		return nil, corruptf("table %q: nextID %d out of range", name, nextID)
	}
	t := newTable(name)
	t.nextID = nextID
	t.lastSeq = seq
	nIx, err := sr.uvarint()
	if err != nil {
		return nil, err
	}
	var ixs []*index
	for i := uint64(0); i < nIx; i++ {
		field, err := sr.str()
		if err != nil {
			return nil, err
		}
		unique, err := sr.br.ReadByte()
		if err != nil || unique > 1 {
			return nil, corruptf("table %q: index %q: bad unique flag", name, field)
		}
		if i > 0 && field <= ixs[len(ixs)-1].field {
			return nil, corruptf("table %q: index %q out of order", name, field)
		}
		ix := newIndex(field, unique == 1)
		t.indexes[field] = ix
		ixs = append(ixs, ix)
	}

	sr.dict = sr.dict[:0]
	var prevID int64
	for chunk := 0; ; chunk++ {
		rows, err := sr.uvarint()
		if err != nil {
			return nil, err
		}
		if rows == 0 {
			return t, nil
		}
		n, err := sr.uvarint()
		if err != nil {
			return nil, err
		}
		// Every row takes at least two bytes: id delta and field count.
		if rows > n/2 {
			return nil, corruptf("table %q chunk %d: %d rows in %d bytes", name, chunk, rows, n)
		}
		payload, err := sr.read(n)
		if err != nil {
			return nil, err
		}
		var sum [4]byte
		if _, err := io.ReadFull(sr.br, sum[:]); err != nil {
			return nil, corruptf("table %q chunk %d: truncated checksum", name, chunk)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(sum[:]) {
			return nil, corruptf("table %q chunk %d: checksum mismatch", name, chunk)
		}
		d := &decoder{b: payload}
		for i := uint64(0); i < rows; i++ {
			id, rec, err := sr.row(d, prevID)
			if err != nil {
				return nil, corruptf("table %q chunk %d row %d: %v", name, chunk, i, err)
			}
			if id >= nextID {
				return nil, corruptf("table %q: id %d not below nextID %d", name, id, nextID)
			}
			for _, ix := range ixs {
				if err := ix.insert(rec, id); err != nil {
					return nil, fmt.Errorf("store: snapshot: %s/%d: %w: %w", name, id, ErrCorrupt, err)
				}
			}
			t.put(id, rec, seq)
			prevID = id
		}
		if d.off != len(d.b) {
			return nil, corruptf("table %q chunk %d: %d trailing bytes", name, chunk, len(d.b)-d.off)
		}
	}
}

// row decodes one row. Field keys come from (and extend) the table's
// dictionary, so every record of the table shares one string per key.
func (sr *snapReader) row(d *decoder, prevID int64) (int64, Record, error) {
	delta, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if delta == 0 || delta > uint64(snapMaxID-prevID) {
		return 0, nil, fmt.Errorf("id delta %d after id %d", delta, prevID)
	}
	id := prevID + int64(delta)
	// Every field takes at least three bytes: key ref, kind, value.
	nF, err := d.ucount(3)
	if err != nil {
		return 0, nil, err
	}
	rec := make(Record, nF+1)
	rec[IDField] = id
	prevKey := ""
	for i := 0; i < nF; i++ {
		ref, err := d.uvarint()
		if err != nil {
			return 0, nil, err
		}
		var key string
		if ref == 0 {
			b, err := d.ubytes()
			if err != nil {
				return 0, nil, err
			}
			key = string(b)
			sr.dict = append(sr.dict, key)
		} else if ref <= uint64(len(sr.dict)) {
			key = sr.dict[ref-1]
		} else {
			return 0, nil, fmt.Errorf("key reference %d beyond a %d-key dictionary", ref, len(sr.dict))
		}
		if (i > 0 && key <= prevKey) || key == IDField {
			return 0, nil, fmt.Errorf("field key %q not after %q", key, prevKey)
		}
		prevKey = key
		v, err := decodeSnapValue(d)
		if err != nil {
			return 0, nil, fmt.Errorf("field %q: %w", key, err)
		}
		rec[key] = v
	}
	return id, rec, nil
}

func decodeSnapValue(d *decoder) (any, error) {
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindString:
		b, err := d.ubytes()
		return string(b), err
	case kindInt:
		return d.varint()
	case kindFloat:
		bits, err := d.u64()
		return math.Float64frombits(bits), err
	case kindBool:
		b, err := d.u8()
		if err == nil && b > 1 {
			err = fmt.Errorf("%w: bool byte %d", errMalformed, b)
		}
		return b == 1, err
	case kindTime:
		b, err := d.ubytes()
		if err != nil {
			return nil, err
		}
		var t time.Time
		if err := t.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return t, nil
	case kindIntList:
		n, err := d.ucount(1)
		if err != nil {
			return nil, err
		}
		l := make([]int64, n)
		for i := range l {
			if l[i], err = d.varint(); err != nil {
				return nil, err
			}
		}
		return l, nil
	case kindStringList:
		n, err := d.ucount(1)
		if err != nil {
			return nil, err
		}
		l := make([]string, n)
		for i := range l {
			b, err := d.ubytes()
			if err != nil {
				return nil, err
			}
			l[i] = string(b)
		}
		return l, nil
	}
	return nil, fmt.Errorf("%w: unknown field kind %d", errMalformed, kind)
}
