package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// WAL frame payload codec. A payload decodes into rowSnapshot /
// fieldSnapshot values (below) and is written with a hand-rolled
// little-endian binary layout; the kind tags are shared with the
// snapshot codec (snapcodec.go), which stores the same values with
// varints instead of fixed-width integers. The layout:
//
//	payload   := seq u64, nTables u32, table...
//	table     := name str, nextID i64, nDeletes u32, i64...,
//	             nWrites u32, write...
//	write     := id i64, nFields u32, field...
//	field     := key str, kind u8, value
//	value     := kindString     str
//	           | kindInt        i64
//	           | kindFloat      u64 (IEEE 754 bits)
//	           | kindBool       u8
//	           | kindTime       bytes (time.Time MarshalBinary)
//	           | kindIntList    u32 n, n×i64
//	           | kindStringList u32 n, n×str
//	str/bytes := u32 len, len bytes
//
// Decoding is strict: trailing garbage, truncation and unknown kinds are
// errors, so a frame that passes its CRC but not the codec is handled as
// corruption by the caller.

// rowSnapshot is one whole-record write of a WAL record.
type rowSnapshot struct {
	ID     int64
	Fields []fieldSnapshot
}

// fieldSnapshot carries one decoded field value with an explicit type tag.
type fieldSnapshot struct {
	Key  string
	Kind uint8
	S    string
	I    int64
	F    float64
	B    bool
	T    time.Time
	LI   []int64
	LS   []string
}

// Field kind tags, shared by the WAL and snapshot codecs.
const (
	kindString uint8 = iota
	kindInt
	kindFloat
	kindBool
	kindTime
	kindIntList
	kindStringList
)

func (fs fieldSnapshot) decode() any {
	switch fs.Kind {
	case kindString:
		return fs.S
	case kindInt:
		return fs.I
	case kindFloat:
		return fs.F
	case kindBool:
		return fs.B
	case kindTime:
		return fs.T
	case kindIntList:
		return fs.LI
	case kindStringList:
		return fs.LS
	default:
		return nil
	}
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// binaryPutU32 patches a u32 in place (e.g. a count written before its
// elements).
func binaryPutU32(b []byte, v uint32) {
	binary.LittleEndian.PutUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// appendValue encodes one live record value in the field layout.
// Unsupported types cannot reach here because Insert/Put validate on the
// way in.
func appendValue(buf []byte, key string, v any) ([]byte, error) {
	buf = appendStr(buf, key)
	switch x := v.(type) {
	case string:
		buf = append(buf, kindString)
		buf = appendStr(buf, x)
	case int64:
		buf = append(buf, kindInt)
		buf = appendI64(buf, x)
	case float64:
		buf = append(buf, kindFloat)
		buf = appendU64(buf, math.Float64bits(x))
	case bool:
		buf = append(buf, kindBool)
		if x {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case time.Time:
		buf = append(buf, kindTime)
		tb, err := x.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("store: encoding time field %q: %w", key, err)
		}
		buf = appendBytes(buf, tb)
	case []int64:
		buf = append(buf, kindIntList)
		buf = appendU32(buf, uint32(len(x)))
		for _, v := range x {
			buf = appendI64(buf, v)
		}
	case []string:
		buf = append(buf, kindStringList)
		buf = appendU32(buf, uint32(len(x)))
		for _, s := range x {
			buf = appendStr(buf, s)
		}
	default:
		return nil, fmt.Errorf("store: field %q has %T: %w", key, v, ErrBadValue)
	}
	return buf, nil
}

// decoder is a bounds-checked cursor over one WAL frame payload or one
// snapshot row chunk.
type decoder struct {
	b   []byte
	off int
}

var errMalformed = errors.New("malformed payload")

func (d *decoder) u8() (byte, error) {
	if d.off+1 > len(d.b) {
		return 0, errMalformed
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, errMalformed
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, errMalformed
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil || d.off+int(n) > len(d.b) {
		return nil, errMalformed
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v, nil
}

func (d *decoder) str() (string, error) {
	v, err := d.bytes()
	return string(v), err
}

// count reads a u32 length and sanity-checks it against the bytes left:
// every counted element occupies at least min bytes, so a count larger
// than remaining/min is corruption, not an allocation request.
func (d *decoder) count(min int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if min > 0 && int(n) > (len(d.b)-d.off)/min {
		return 0, errMalformed
	}
	return int(n), nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, errMalformed
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, errMalformed
	}
	d.off += n
	return v, nil
}

// ucount is count for a uvarint length.
func (d *decoder) ucount(min int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.b)-d.off)/uint64(min) {
		return 0, errMalformed
	}
	return int(n), nil
}

// ubytes reads a uvarint-length-prefixed byte run; the result aliases
// the payload.
func (d *decoder) ubytes() ([]byte, error) {
	n, err := d.ucount(1)
	if err != nil {
		return nil, err
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v, nil
}

// decodeWALRecord parses a payload produced by encodeWALRecord.
func decodeWALRecord(payload []byte) (walRecord, error) {
	d := &decoder{b: payload}
	var rec walRecord
	var err error
	fail := func(e error) (walRecord, error) {
		return walRecord{}, fmt.Errorf("store: %w", e)
	}
	if rec.Seq, err = d.u64(); err != nil {
		return fail(err)
	}
	nTables, err := d.count(4)
	if err != nil {
		return fail(err)
	}
	if nTables > 0 {
		rec.Tables = make([]walTableChange, 0, nTables)
	}
	for ti := 0; ti < nTables; ti++ {
		var tc walTableChange
		if tc.Name, err = d.str(); err != nil {
			return fail(err)
		}
		if tc.NextID, err = d.i64(); err != nil {
			return fail(err)
		}
		nDel, err := d.count(8)
		if err != nil {
			return fail(err)
		}
		if nDel > 0 {
			tc.Deletes = make([]int64, nDel)
			for i := range tc.Deletes {
				if tc.Deletes[i], err = d.i64(); err != nil {
					return fail(err)
				}
			}
		}
		nWr, err := d.count(12)
		if err != nil {
			return fail(err)
		}
		if nWr > 0 {
			tc.Writes = make([]rowSnapshot, 0, nWr)
		}
		for wi := 0; wi < nWr; wi++ {
			var rs rowSnapshot
			if rs.ID, err = d.i64(); err != nil {
				return fail(err)
			}
			nF, err := d.count(5)
			if err != nil {
				return fail(err)
			}
			if nF > 0 {
				rs.Fields = make([]fieldSnapshot, 0, nF)
			}
			for fi := 0; fi < nF; fi++ {
				fs, err := decodeField(d)
				if err != nil {
					return fail(err)
				}
				rs.Fields = append(rs.Fields, fs)
			}
			tc.Writes = append(tc.Writes, rs)
		}
		rec.Tables = append(rec.Tables, tc)
	}
	if d.off != len(d.b) {
		return fail(fmt.Errorf("%w: %d trailing bytes", errMalformed, len(d.b)-d.off))
	}
	return rec, nil
}

func decodeField(d *decoder) (fieldSnapshot, error) {
	var fs fieldSnapshot
	var err error
	if fs.Key, err = d.str(); err != nil {
		return fs, err
	}
	if fs.Kind, err = d.u8(); err != nil {
		return fs, err
	}
	switch fs.Kind {
	case kindString:
		fs.S, err = d.str()
	case kindInt:
		fs.I, err = d.i64()
	case kindFloat:
		var bits uint64
		bits, err = d.u64()
		fs.F = math.Float64frombits(bits)
	case kindBool:
		var b byte
		b, err = d.u8()
		fs.B = b != 0
	case kindTime:
		var tb []byte
		if tb, err = d.bytes(); err == nil {
			var t time.Time
			if err = t.UnmarshalBinary(tb); err == nil {
				fs.T = t
			}
		}
	case kindIntList:
		var n int
		if n, err = d.count(8); err == nil {
			fs.LI = make([]int64, n)
			for i := range fs.LI {
				if fs.LI[i], err = d.i64(); err != nil {
					break
				}
			}
		}
	case kindStringList:
		var n int
		if n, err = d.count(4); err == nil {
			fs.LS = make([]string, n)
			for i := range fs.LS {
				if fs.LS[i], err = d.str(); err != nil {
					break
				}
			}
		}
	default:
		err = fmt.Errorf("%w: unknown field kind %d", errMalformed, fs.Kind)
	}
	return fs, err
}
