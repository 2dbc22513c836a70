// Package fulltext defines what an index term is. The store's text index
// emits its keys with it on every commit, WAL replay and snapshot load,
// and the search layer parses queries and recounts term frequencies with
// it, so a query term always names exactly the keys the index holds.
package fulltext

import (
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// MinLen is the length, in bytes, of the shortest index term.
const MinLen = 2

// IsStopword reports whether term is excluded from the index.
func IsStopword(term string) bool {
	switch term {
	case "the", "a", "an", "of", "and", "or", "in", "on", "to", "is", "for", "with":
		return true
	}
	return false
}

// lowerAlnum marks the bytes that are index-term bytes as they stand:
// lower-case ASCII letters and digits.
var lowerAlnum = func() (t [256]bool) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = true
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	return t
}()

// Scan lower-cases s and calls fn with each of its index terms in order:
// the maximal runs of letters and digits that are at least MinLen bytes
// long and not stopwords. The term passed to fn may alias buf, so it is
// only valid during the call; copy it (strings.Clone) to keep it. Scan
// returns the buffer for reuse; once it is large enough, Scan allocates
// nothing.
func Scan(buf []byte, s string, fn func(term string)) []byte {
	for i := 0; i < len(s); {
		start := i
		for i < len(s) && lowerAlnum[s[i]] {
			i++
		}
		if i == len(s) || s[i] < utf8.RuneSelf && (s[i] < 'A' || s[i] > 'Z') {
			// The run ends at an ASCII separator or at the end of s: it is
			// a term as it stands.
			emit(s[start:i], fn)
			i++
			continue
		}
		// The run goes on with upper-case or non-ASCII text: fold it rune
		// by rune into buf, up to and including its separator.
		buf = append(buf[:0], s[start:i]...)
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				i++
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				if !lowerAlnum[c] {
					break
				}
				buf = append(buf, c)
				continue
			}
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if r = unicode.ToLower(r); !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			buf = utf8.AppendRune(buf, r)
		}
		emit(unsafe.String(unsafe.SliceData(buf), len(buf)), fn)
	}
	return buf
}

func emit(term string, fn func(term string)) {
	if len(term) >= MinLen && !IsStopword(term) {
		fn(term)
	}
}

// Tokenize returns the index terms of s in order.
func Tokenize(s string) []string {
	var out []string
	Scan(nil, s, func(term string) { out = append(out, strings.Clone(term)) })
	return out
}

// FieldKey is the text-index key of term occurring in field.
func FieldKey(field, term string) string { return field + "\x00" + term }
