// Package index owns the physical storage layout of PIQL data in the
// key/value store — record keys and secondary index entries — and the
// write-path maintenance protocol of Section 7.2: index entries are
// inserted before the record and stale entries deleted after, so a crash
// leaves at worst dangling index entries (never missing ones);
// cardinality constraints are enforced with a count-range check after
// insert; uniqueness uses test-and-set.
package index

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/schema"
	"piql/internal/value"
)

// Key namespaces. Records and index entries live in disjoint regions of
// the key space, both prefixed by a string component so the cluster's
// range partitioning keeps each table/index section contiguous.
const (
	recordNS = "t:"
	indexNS  = "x:"
)

// Tables and indexes are immutable once registered in a catalog (shared
// across snapshots and compiled plans), so their namespace prefixes are
// computed once and cached by identity. Cached slices are capacity-
// clipped: appending to one always reallocates, so callers can extend a
// returned prefix into a full key without clobbering the cache.
var (
	recordPrefixCache sync.Map // *schema.Table -> []byte
	indexPrefixCache  sync.Map // *schema.Index -> []byte
)

// RecordPrefix returns the key prefix of all records of a table.
func RecordPrefix(t *schema.Table) []byte {
	if p, ok := recordPrefixCache.Load(t); ok {
		return p.([]byte)
	}
	p := codec.EncodeKey(value.Row{value.Str(recordNS + strings.ToLower(t.Name))}, nil)
	p = p[:len(p):len(p)]
	recordPrefixCache.Store(t, p)
	return p
}

// RecordKey builds the storage key of the row's record: the table
// namespace followed by the encoded primary key values.
func RecordKey(t *schema.Table, row value.Row) []byte {
	key := RecordPrefix(t)
	for _, pk := range t.PrimaryKey {
		key = codec.AppendValue(key, row[t.ColumnIndex(pk)], false)
	}
	return key
}

// RecordKeyFromPK builds a record key from primary key values directly.
func RecordKeyFromPK(t *schema.Table, pk value.Row) []byte {
	key := RecordPrefix(t)
	for _, v := range pk {
		key = codec.AppendValue(key, v, false)
	}
	return key
}

// IndexPrefix returns the key prefix of all entries of a secondary index.
func IndexPrefix(ix *schema.Index) []byte {
	if p, ok := indexPrefixCache.Load(ix); ok {
		return p.([]byte)
	}
	p := codec.EncodeKey(value.Row{value.Str(indexNS + strings.ToLower(ix.Name))}, nil)
	p = p[:len(p):len(p)]
	indexPrefixCache.Store(ix, p)
	return p
}

// EntryKeys builds the index entry keys a row contributes to ix. Plain
// indexes produce exactly one entry; a tokenized leading field produces
// one entry per distinct token of the column text (the inverted
// full-text index of Section 7.3).
func EntryKeys(ix *schema.Index, t *schema.Table, row value.Row) [][]byte {
	suffix, tokenField := appendEntrySuffix(make([]byte, 0, 64), ix, t, row)
	if tokenField == nil {
		key := append(IndexPrefix(ix), suffix...)
		return [][]byte{key}
	}
	text := row[t.ColumnIndex(tokenField.Column)]
	toks := core.Tokenize(text.S)
	seen := make(map[string]bool, len(toks))
	var keys [][]byte
	prefix := IndexPrefix(ix)
	for _, tok := range toks {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		key := make([]byte, 0, len(prefix)+1+len(tok)+len(suffix))
		key = append(key, prefix...)
		key = codec.AppendValue(key, value.Str(tok), tokenField.Desc)
		key = append(key, suffix...)
		keys = append(keys, key)
	}
	return keys
}

// appendEntrySuffix appends the encoded non-token fields of row, in
// index order, to dst and returns the index's token field (nil for a
// plain index).
func appendEntrySuffix(dst []byte, ix *schema.Index, t *schema.Table, row value.Row) ([]byte, *schema.IndexField) {
	var tokenField *schema.IndexField
	for i := range ix.Fields {
		f := &ix.Fields[i]
		if f.Token {
			if tokenField != nil {
				// Multiple token fields per index are rejected by the
				// catalog; defensive guard.
				panic("index: multiple token fields")
			}
			tokenField = f
			continue
		}
		dst = codec.AppendValue(dst, row[t.ColumnIndex(f.Column)], f.Desc)
	}
	return dst, tokenField
}

// ProducesEntry reports whether row, a record of t, still produces the
// entry key ekey of ix. An entry whose record no longer produces it is
// stale: a half-completed update moved the record away from it. The
// check builds no key: it encodes the entry's suffix into a stack buffer
// and, for a tokenized index, matches the token between prefix and
// suffix against the words of the row's text.
func ProducesEntry(ix *schema.Index, t *schema.Table, row value.Row, ekey []byte) bool {
	var buf [128]byte
	suffix, tokenField := appendEntrySuffix(buf[:0], ix, t, row)
	prefix := IndexPrefix(ix)
	if len(ekey) < len(prefix)+len(suffix) || !bytes.HasPrefix(ekey, prefix) || !bytes.HasSuffix(ekey, suffix) {
		return false
	}
	tok := ekey[len(prefix) : len(ekey)-len(suffix)]
	if tokenField == nil {
		return len(tok) == 0
	}
	return hasToken(row[t.ColumnIndex(tokenField.Column)].S, tok, tokenField.Desc)
}

// hasToken reports whether text has the token encoded in enc as a key
// component in direction desc. A token of up to 32 bytes is decoded and
// compared on the stack.
func hasToken(text string, enc []byte, desc bool) bool {
	var buf [32]byte
	tok, ok := codec.AppendStringPayload(buf[:0], enc, desc)
	return ok && core.ContainsToken(text, string(tok))
}

// entryDesc returns the desc flags of an entry key's components: the
// namespace, then the fields in entry-key order (token first).
func entryDesc(ix *schema.Index) []bool {
	return append([]bool{false}, entryFieldFlags(ix)...)
}

// DecodeEntry extracts the primary key values from a secondary index
// entry key, using the positions of the table's primary key columns
// within the index fields.
func DecodeEntry(ix *schema.Index, t *schema.Table, key []byte) (value.Row, error) {
	vals, err := codec.DecodeKey(key, 1+len(ix.Fields), entryDesc(ix))
	if err != nil {
		return nil, fmt.Errorf("index %s: %w", ix.Name, err)
	}
	// vals[0] = namespace; the token value (if any) comes next; then the
	// non-token field values in field order.
	fieldVal := make(map[string]value.Value)
	pos := 1
	for _, f := range ix.Fields {
		if f.Token {
			pos = 2 // skip the token value: it is not a column value
			break
		}
	}
	for _, f := range ix.Fields {
		if f.Token {
			continue
		}
		fieldVal[strings.ToLower(f.Column)] = vals[pos]
		pos++
	}
	pk := make(value.Row, len(t.PrimaryKey))
	for i, col := range t.PrimaryKey {
		v, ok := fieldVal[strings.ToLower(col)]
		if !ok {
			return nil, fmt.Errorf("index %s does not embed primary key column %s", ix.Name, col)
		}
		pk[i] = v
	}
	return pk, nil
}

// FieldValues decodes all non-token field column values from an entry
// key (used by covering reads of sort columns).
func FieldValues(ix *schema.Index, key []byte) (value.Row, error) {
	n := 1 + len(ix.Fields)
	vals, err := codec.DecodeKey(key, n, entryDesc(ix))
	if err != nil {
		return nil, err
	}
	return vals[1:], nil
}

// ScanPrefix builds the scan prefix for an index access: namespace, then
// the given leading values encoded with the index's field directions.
// For tokenized indexes the first value is the token.
func ScanPrefix(ix *schema.Index, leading value.Row) []byte {
	key := IndexPrefix(ix)
	flags := entryFieldFlags(ix)
	for i, v := range leading {
		key = codec.AppendValue(key, v, flags[i])
	}
	return key
}

// entryFieldFlags returns desc flags in entry-key order (token first).
func entryFieldFlags(ix *schema.Index) []bool {
	var flags []bool
	for _, f := range ix.Fields {
		if f.Token {
			flags = append(flags, f.Desc)
		}
	}
	for _, f := range ix.Fields {
		if !f.Token {
			flags = append(flags, f.Desc)
		}
	}
	return flags
}

// RangeComponentDesc returns the desc flag of the entry component at
// position i (0-based over token-then-nontoken order) — needed to encode
// inequality range bounds.
func RangeComponentDesc(ix *schema.Index, i int) bool {
	flags := entryFieldFlags(ix)
	return flags[i]
}

// NormalizeTokens lower-cases the leading token value of a scan prefix,
// so CONTAINS lookups match the tokenizer's casing regardless of how the
// search word was supplied. Non-token indexes are untouched.
func NormalizeTokens(ix *schema.Index, leading value.Row) {
	for _, f := range ix.Fields {
		if !f.Token {
			continue
		}
		// The token component is always encoded first.
		if len(leading) > 0 && leading[0].T == value.TypeString {
			toks := core.Tokenize(leading[0].S)
			if len(toks) > 0 {
				leading[0] = value.Str(toks[0])
			} else {
				leading[0] = value.Str("")
			}
		}
		return
	}
}

// RowFromCoveringEntry reconstructs a full table row from an entry of a
// covering index — one whose non-token fields include every column of
// the table — writing the columns into dest starting at offset. The
// cost-based baseline's unbounded scans read rows this way without a
// dereference round trip.
func RowFromCoveringEntry(ix *schema.Index, t *schema.Table, key []byte, dest value.Row, offset int) error {
	vals, err := codec.DecodeKey(key, 1+len(ix.Fields), entryDesc(ix))
	if err != nil {
		return fmt.Errorf("index %s: %w", ix.Name, err)
	}
	pos := 1
	for _, f := range ix.Fields {
		if f.Token {
			pos = 2
			break
		}
	}
	seen := make(map[string]bool, len(ix.Fields))
	for _, f := range ix.Fields {
		if f.Token {
			continue
		}
		ci := t.ColumnIndex(f.Column)
		if ci < 0 {
			return fmt.Errorf("index %s: unknown column %s", ix.Name, f.Column)
		}
		dest[offset+ci] = vals[pos]
		seen[strings.ToLower(f.Column)] = true
		pos++
	}
	for _, c := range t.Columns {
		if !seen[strings.ToLower(c.Name)] {
			return fmt.Errorf("index %s does not cover column %s", ix.Name, c.Name)
		}
	}
	return nil
}
