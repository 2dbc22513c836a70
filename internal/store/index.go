package store

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fulltext"
)

// indexKey is the canonical string form of an indexed field value. Using a
// typed string keeps index maps simple while still distinguishing types
// (e.g. int64(1) never collides with "1").
type indexKey string

// keyFor converts a field value to its index key. The bool result reports
// whether the value is indexable; slices are not.
func keyFor(v any) (indexKey, bool) {
	switch x := v.(type) {
	case nil:
		return "", false
	case string:
		return indexKey("s:" + x), true
	case int64:
		return indexKey("i:" + strconv.FormatInt(x, 10)), true
	case float64:
		return indexKey("f:" + strconv.FormatFloat(x, 'g', -1, 64)), true
	case bool:
		if x {
			return "b:1", true
		}
		return "b:0", true
	case time.Time:
		return indexKey("t:" + x.UTC().Format(time.RFC3339Nano)), true
	default:
		return "", false
	}
}

// decodeKey converts an index key back to the field value it encodes —
// the inverse of keyFor, used by grouped aggregates to report group keys
// without reading any row. Every key keyFor produces decodes.
func decodeKey(k indexKey) (any, bool) {
	if len(k) < 2 || k[1] != ':' {
		return nil, false
	}
	body := string(k[2:])
	switch k[0] {
	case 's':
		return body, true
	case 'i':
		n, err := strconv.ParseInt(body, 10, 64)
		return n, err == nil
	case 'f':
		f, err := strconv.ParseFloat(body, 64)
		return f, err == nil
	case 'b':
		return body == "1", true
	case 't':
		ts, err := time.Parse(time.RFC3339Nano, body)
		return ts, err == nil
	}
	return nil, false
}

// Index postings are spread over hash shards arranged as a two-level
// radix: ixGroupCount groups of ixGroupSize shard maps each. Sharding
// exists for the copy-on-write commit path: a commit privatizes only the
// shards whose keys it touches, so the per-commit clone cost is
// O(touched keys * keys-per-shard) instead of O(all distinct keys) — the
// difference between constant and linear write amplification on tables
// with high-cardinality indexes. The two levels keep the clone itself
// tiny: copying an index head is ixGroupCount pointers, and privatizing
// one shard copies a single ixGroupSize-entry group plus that shard map.
const (
	ixGroupBits     = 6
	ixGroupCount    = 1 << ixGroupBits
	ixShardBits     = 4
	ixGroupSize     = 1 << ixShardBits
	indexShardCount = ixGroupCount * ixGroupSize
)

// ixGroup is one run of shard maps; entries are nil until first used.
type ixGroup [ixGroupSize]map[indexKey][]int64

// shardOf hashes an index key to its shard (FNV-1a). The group is
// shard >> ixShardBits, the slot within it shard & (ixGroupSize-1).
func shardOf(key indexKey) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (indexShardCount - 1))
}

// index is a secondary index of a table. Each record emits a set of keys
// (appendKeys) and each key's postings are the ids of the records that
// emit it, kept as sorted id slices inside hash-sharded maps and
// maintained incrementally on insert/remove, so lookups return ordered
// results without re-sorting. A field index emits at most one key, the
// field's value; unique field indexes additionally enforce at most one
// row per key. The text index (one per table, under textIndexName) emits
// the record's full-text terms.
//
// Like every version-reachable structure, a published index is immutable:
// the in-place methods below are only legal while the index is private
// (recovery, Load, CreateIndex builds); commits go through cowIndex,
// which privatizes groups, shards and postings before touching them.
type index struct {
	field  string
	unique bool
	text   bool
	// groups holds the shard maps; nil groups (and nil shard maps inside
	// a group) are all-empty.
	groups []*ixGroup
	// fields, on a text index, are the sorted names of the string and
	// []string fields its records have carried. It never shrinks, so it
	// is a superset of the fields holding an indexed term; the slice is
	// replaced, never modified, when a field is added.
	fields []string
}

// textIndexName is the name the text index is registered under in
// table.indexes. It is reserved: no field index may take it, and the
// planner, lookups and aggregates never see the text index (fieldIndex).
const textIndexName = "\x00text"

func newIndex(field string, unique bool) *index {
	return &index{field: field, unique: unique, groups: make([]*ixGroup, ixGroupCount)}
}

// appendKeys appends the record's key set under this index to keys, in
// ascending order without duplicates.
func (ix *index) appendKeys(keys []indexKey, r Record) []indexKey {
	start := len(keys)
	ix.eachKey(r, func(key indexKey) { keys = append(keys, key) })
	slices.Sort(keys[start:])
	return slices.Compact(keys)
}

// eachKey calls fn with every key the record emits, in no particular
// order and possibly repeated: at most one for a field index (the field's
// value), and for a text index, for every string and []string field,
// each term t and the pair field\x00t (fulltext.FieldKey).
func (ix *index) eachKey(r Record, fn func(key indexKey)) {
	if !ix.text {
		if key, ok := keyFor(r[ix.field]); ok {
			fn(key)
		}
		return
	}
	var buf []byte
	for field, v := range r {
		emit := func(term string) {
			fn(indexKey(strings.Clone(term)))
			fn(indexKey(fulltext.FieldKey(field, term)))
		}
		switch x := v.(type) {
		case string:
			buf = fulltext.Scan(buf, x, emit)
		case []string:
			for _, s := range x {
				buf = fulltext.Scan(buf, s, emit)
			}
		}
	}
}

// clone returns a copy of the index sharing every shard group (and thus
// every postings slice) with the original. Used by the copy-on-write
// commit path, which privatizes groups and shards before mutating them
// (see cowIndex); the in-place methods must never run on a clone.
func (ix *index) clone() *index {
	return &index{
		field:  ix.field,
		unique: ix.unique,
		text:   ix.text,
		groups: append(make([]*ixGroup, 0, ixGroupCount), ix.groups...),
		fields: ix.fields,
	}
}

// postings returns the sorted ids holding key, shared — callers must not
// mutate.
func (ix *index) postings(key indexKey) []int64 {
	return ix.shard(key, false)[key]
}

// shard returns the shard map covering key, or nil when it does not
// exist and create is false. Creating one mutates the index IN PLACE, so
// create is only legal on a private index.
func (ix *index) shard(key indexKey, create bool) map[indexKey][]int64 {
	s := shardOf(key)
	g := ix.groups[s>>ixShardBits]
	if g == nil {
		if !create {
			return nil
		}
		g = new(ixGroup)
		ix.groups[s>>ixShardBits] = g
	}
	m := g[s&(ixGroupSize-1)]
	if m == nil && create {
		m = make(map[indexKey][]int64)
		g[s&(ixGroupSize-1)] = m
	}
	return m
}

// withTextFields returns fields extended by the names of r's string and
// []string fields, in order. It returns fields itself when nothing is
// new and never modifies it.
func withTextFields(fields []string, r Record) []string {
	for k, v := range r {
		switch v.(type) {
		case string, []string:
			if i, found := slices.BinarySearch(fields, k); !found {
				fields = slices.Insert(slices.Clip(fields), i, k)
			}
		}
	}
	return fields
}

// insert adds id under every key the record emits, IN PLACE. Only legal
// on a private index.
func (ix *index) insert(r Record, id int64) error {
	if ix.text {
		ix.fields = withTextFields(ix.fields, r)
	}
	var err error
	ix.eachKey(r, func(key indexKey) {
		m := ix.shard(key, true)
		ids := m[key]
		if n := len(ids); ix.unique && n > 0 && !(n == 1 && ids[0] == id) {
			err = fmt.Errorf("field %q value %v: %w", ix.field, r[ix.field], ErrUnique)
			return
		}
		m[key] = insertSorted(ids, id)
	})
	return err
}

// remove drops id from every key the record emits, IN PLACE. Only legal
// on a private index.
func (ix *index) remove(r Record, id int64) {
	ix.eachKey(r, func(key indexKey) {
		m := ix.shard(key, false)
		if ids := removeSorted(m[key], id); len(ids) > 0 {
			m[key] = ids
		} else {
			delete(m, key)
		}
	})
}

// walkKeys calls fn for every key with postings, in shard order (that
// is, unordered with respect to key values), sharing each postings slice
// (callers must not mutate). fn returning false stops the walk. This is
// the grouped-count access path: the distinct keys of the index and
// their live-row counts, without touching a single record.
func (ix *index) walkKeys(fn func(key indexKey, ids []int64) bool) {
	for _, g := range ix.groups {
		if g == nil {
			continue
		}
		for _, m := range g {
			for key, ids := range m {
				if len(ids) == 0 {
					continue
				}
				if !fn(key, ids) {
					return
				}
			}
		}
	}
}

// lookup returns the sorted IDs of rows whose indexed field equals v. The
// result is a fresh slice the caller may keep.
func (ix *index) lookup(v any) []int64 {
	key, ok := keyFor(v)
	if !ok {
		return nil
	}
	ids := ix.postings(key)
	if len(ids) == 0 {
		return nil
	}
	out := make([]int64, len(ids))
	copy(out, ids)
	return out
}

// checkUnique verifies that writing record r under id would not violate the
// unique constraint, given the committed index state plus the transaction's
// pending overlay (pending/deleted describe rows written/deleted in the
// transaction, keyed by id).
func (ix *index) checkUnique(r Record, id int64, pending map[int64]Record, deleted map[int64]bool) error {
	if !ix.unique {
		return nil
	}
	v, ok := r[ix.field]
	if !ok {
		return nil
	}
	key, ok := keyFor(v)
	if !ok {
		return nil
	}
	// Committed holders of this key.
	for _, holder := range ix.postings(key) {
		if holder == id {
			continue
		}
		if deleted[holder] {
			continue // will be gone at commit
		}
		if pr, ok := pending[holder]; ok {
			// Holder is being rewritten in this tx; does it still hold the key?
			if nk, ok2 := keyFor(pr[ix.field]); ok2 && nk == key {
				return fmt.Errorf("field %q value %v held by row %d: %w", ix.field, v, holder, ErrUnique)
			}
			continue
		}
		return fmt.Errorf("field %q value %v held by row %d: %w", ix.field, v, holder, ErrUnique)
	}
	// Other pending writes in the same transaction.
	for oid, pr := range pending {
		if oid == id || deleted[oid] {
			continue
		}
		if nk, ok2 := keyFor(pr[ix.field]); ok2 && nk == key {
			return fmt.Errorf("field %q value %v pending on row %d: %w", ix.field, v, oid, ErrUnique)
		}
	}
	return nil
}

// insertSorted adds id to the ascending slice, keeping it sorted and
// duplicate-free. Serial IDs almost always append; the general case falls
// back to a binary-search insertion.
func insertSorted(ids []int64, id int64) []int64 {
	n := len(ids)
	if n == 0 || id > ids[n-1] {
		return append(ids, id)
	}
	i := sort.Search(n, func(k int) bool { return ids[k] >= id })
	if i < n && ids[i] == id {
		return ids // already present
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeSorted drops id from the ascending slice, if present.
func removeSorted(ids []int64, id int64) []int64 {
	n := len(ids)
	i := sort.Search(n, func(k int) bool { return ids[k] >= id })
	if i == n || ids[i] != id {
		return ids
	}
	copy(ids[i:], ids[i+1:])
	return ids[:n-1]
}
