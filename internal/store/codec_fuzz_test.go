package store

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"
)

// The decoders below read bytes from disk or the network. Seed corpora
// live in testdata/fuzz/<target>/ and are replayed by plain `go test`;
// `make fuzz` explores beyond them.

// fuzzMaxID keeps crafted ids from dominating the allocation bound: a
// table spends one chunk pointer per 128 ids of id space, memory the
// input length does not pay for.
const fuzzMaxID = 1 << 20

// fuzzAllocBound is what decoding len bytes may allocate: fixed I/O
// buffers plus a generous per-byte allowance for the records, index
// postings and maps the bytes legitimately describe.
func fuzzAllocBound(n int) uint64 {
	return 4<<20 + 1024*uint64(n)
}

func fuzzAllocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzSnapshotDecode feeds arbitrary bytes to Load (on a fresh store),
// to ResetFromSnapshot and to the row decoder. None may panic or allocate beyond what
// the input length allows, every failure must be typed corruption or a
// format refusal, and whatever decodes must re-encode to a canonical
// snapshot that round-trips byte-identically.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(fuzzSeedSnapshot(f))
	defer func(old int64) { snapMaxID = old }(snapMaxID)
	snapMaxID = fuzzMaxID
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
		}
		s := New()
		var loadErr error
		if a := fuzzAllocs(func() { loadErr = s.Load(bytes.NewReader(data)) }); a > fuzzAllocBound(len(data)) {
			t.Fatalf("Load of %d bytes allocated %d", len(data), a)
		}
		typed("Load", loadErr)

		r := New()
		var resetErr error
		if a := fuzzAllocs(func() { _, resetErr = r.ResetFromSnapshot(bytes.NewReader(data)) }); a > fuzzAllocBound(len(data)) {
			t.Fatalf("ResetFromSnapshot of %d bytes allocated %d", len(data), a)
		}
		typed("ResetFromSnapshot", resetErr)
		if (loadErr == nil) != (resetErr == nil) {
			t.Fatalf("Load and ResetFromSnapshot disagree: %v vs %v", loadErr, resetErr)
		}

		// Row decoding sits behind chunk CRCs the fuzzer cannot forge;
		// feed the same bytes to it directly as a chunk payload.
		sr := &snapReader{}
		d := &decoder{b: data}
		var prev int64
		if a := fuzzAllocs(func() {
			for d.off < len(d.b) {
				id, _, err := sr.row(d, prev)
				if err != nil {
					break
				}
				prev = id
			}
		}); a > fuzzAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes of rows allocated %d", len(data), a)
		}

		if loadErr != nil {
			return
		}

		var canon, again bytes.Buffer
		if err := s.Save(&canon); err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		s2 := New()
		if err := s2.Load(bytes.NewReader(canon.Bytes())); err != nil {
			t.Fatalf("reloading a re-encoded snapshot: %v", err)
		}
		if err := s2.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon.Bytes(), again.Bytes()) {
			t.Fatal("re-encoded snapshot does not round-trip byte-identically")
		}
	})
}

// fuzzSeedSnapshot is a small snapshot exercising every value kind, a
// unique and a plain index, a deleted row and two tables.
func fuzzSeedSnapshot(tb testing.TB) []byte {
	s := New()
	err := errors.Join(
		s.CreateTable("sample"), s.CreateTable("extract"),
		s.CreateIndex("sample", "name", true), s.CreateIndex("extract", "sample", false),
		s.Update(func(tx *Tx) error {
			_, err1 := tx.Insert("sample", Record{
				"name": "arabidopsis", "count": int64(-42), "ratio": 0.5, "active": true,
				"created":  time.Date(2010, 1, 2, 3, 4, 5, 6, time.UTC),
				"extracts": []int64{1, 2}, "tags": []string{"plant", ""},
			})
			gone, err2 := tx.Insert("sample", Record{"name": "deleted"})
			_, err3 := tx.Insert("sample", Record{"name": "kept", "count": int64(7)})
			_, err4 := tx.Insert("extract", Record{"name": "leaf", "sample": int64(1)})
			return errors.Join(err1, err2, err3, err4, tx.Delete("sample", gone))
		}))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeWALRecord feeds arbitrary bytes to the WAL payload decoder,
// whose kind tags the snapshot codec shares. It must never panic or
// over-allocate, and whatever decodes must re-encode canonically.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec walRecord
		var err error
		if a := fuzzAllocs(func() { rec, err = decodeWALRecord(data) }); a > fuzzAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), a)
		}
		if err != nil {
			return
		}
		canon, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		rec2, err := decodeWALRecord(canon)
		if err != nil {
			t.Fatalf("decoding a re-encoded record: %v", err)
		}
		again, err := encodeWALRecord(rec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, again) {
			t.Fatal("re-encoded record does not round-trip byte-identically")
		}
	})
}
