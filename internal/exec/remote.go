package exec

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"

	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// runPKLookup fetches at most one record per distinct key: a key an IN
// list names twice (as a literal or through equal parameters) yields
// its row once.
func (e *executor) runPKLookup(n *core.PKLookup) ([]value.Row, error) {
	e.nextRemoteOrdinal() // PKLookup has no resumable position
	keys := make([][]byte, 0, len(n.Keys))
	for _, spec := range n.Keys {
		pk, err := spec.Eval(e.ctx.Params, nil)
		if err != nil {
			return nil, err
		}
		key := index.RecordKeyFromPK(n.Table, pk)
		if !slices.ContainsFunc(keys, func(k []byte) bool { return bytes.Equal(k, key) }) {
			keys = append(keys, key)
		}
	}
	recs := e.getBatch(keys)
	var rows []value.Row
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		row := e.newRow()
		if err := placeRecord(row, n.TableOffset, rec); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return e.filterResidual(rows, n.Residual)
}

// scanBounds computes the byte range of an index scan from its equality
// prefix and optional inequality bounds, honoring the direction of the
// range component's encoding.
func scanBounds(n *core.IndexScan, params []value.Value) (start, end []byte, err error) {
	eq, err := core.KeySpec(n.Eq).Eval(params, nil)
	if err != nil {
		return nil, nil, err
	}
	index.NormalizeTokens(n.Index, eq)
	var prefix []byte
	var compDesc bool
	if n.Index.Primary {
		prefix = index.RecordPrefix(n.Table)
		for _, v := range eq {
			prefix = codec.AppendValue(prefix, v, false)
		}
		compDesc = false
	} else {
		prefix = index.ScanPrefix(n.Index, eq)
		if n.Lower != nil || n.Upper != nil {
			compDesc = index.RangeComponentDesc(n.Index, len(eq))
		}
	}
	start, end = prefix, codec.PrefixEnd(prefix)

	bound := func(b *core.RangeBound, desc bool) ([]byte, error) {
		v, err := b.Expr.Eval(params, nil)
		if err != nil {
			return nil, err
		}
		return codec.AppendValue(append([]byte{}, prefix...), v, desc), nil
	}
	// In value space Lower/Upper are fixed; in byte space a descending
	// component swaps their roles.
	lo, hi := n.Lower, n.Upper
	if compDesc {
		lo, hi = hi, lo
	}
	if lo != nil {
		k, err := bound(lo, compDesc)
		if err != nil {
			return nil, nil, err
		}
		if lo.Inclusive {
			start = k
		} else {
			start = codec.PrefixEnd(k)
		}
	}
	if hi != nil {
		k, err := bound(hi, compDesc)
		if err != nil {
			return nil, nil, err
		}
		if hi.Inclusive {
			end = codec.PrefixEnd(k)
		} else {
			end = k
		}
	}
	return start, end, nil
}

// fetchRange reads up to limit entries of [start, end), honoring the
// strategy: Lazy fetches one entry per request; Simple fetches the whole
// batch in one request, walking partitions sequentially; Parallel
// scatter-gathers the per-partition scans concurrently. limit <= 0 means
// "everything" (cost-based unbounded plans only).
func (e *executor) fetchRange(start, end []byte, limit int, reverse bool) []kvstore.KV {
	req := kvstore.RangeRequest{Start: start, End: end, Limit: limit, Reverse: reverse}
	switch {
	case e.ctx.Strategy == Parallel:
		return e.ctx.Client.GetRangeScatter(req)
	case e.ctx.Strategy != Lazy || limit <= 0:
		return e.ctx.Client.GetRange(req)
	}
	// Tuple-at-a-time walk: each fetched key becomes the next request's
	// start bound. The successor key lives in a scratch buffer reused
	// across tuples — and, when the caller threads a Scratch through
	// (Cursor pagination), across pages — so the walk's only per-tuple
	// cost is the request itself, not an allocation. Rebinding the
	// buffer between iterations is safe: GetRange reads its bounds only
	// for the duration of the call.
	var buf []byte
	if e.ctx.Scratch != nil {
		buf = e.ctx.Scratch.key
	}
	var out []kvstore.KV
	for len(out) < limit {
		kvs := e.ctx.Client.GetRange(kvstore.RangeRequest{Start: start, End: end, Limit: 1, Reverse: reverse})
		if len(kvs) == 0 {
			break
		}
		out = append(out, kvs[0])
		if reverse {
			end = kvs[0].Key
		} else {
			buf = append(buf[:0], kvs[0].Key...)
			buf = append(buf, 0x00)
			start = buf
		}
	}
	if e.ctx.Scratch != nil {
		e.ctx.Scratch.key = buf
	}
	return out
}

// successor returns the smallest key greater than k.
func successor(k []byte) []byte {
	return append(append([]byte{}, k...), 0x00)
}

// runIndexScan reads one contiguous index section.
func (e *executor) runIndexScan(n *core.IndexScan) ([]value.Row, error) {
	ord, resume := e.nextRemoteOrdinal()
	start, end, err := scanBounds(n, e.ctx.Params)
	if err != nil {
		return nil, err
	}
	reverse := !n.Ascending
	if resume != nil {
		if reverse {
			end = resume
		} else {
			start = successor(resume)
		}
	}
	limit := 0
	if !n.Unbounded {
		limit = n.LimitHint
		if limit == 0 {
			limit = n.DataStopCard
		}
	}
	kvs := e.fetchRange(start, end, limit, reverse)
	if len(kvs) > 0 {
		e.storeResume(ord, kvs[len(kvs)-1].Key)
	} else {
		e.storeResume(ord, resume)
	}

	var rows []value.Row
	switch {
	case n.Index.Primary:
		for _, kv := range kvs {
			row := e.newRow()
			if err := placeRecord(row, n.TableOffset, kv.Value); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	case !n.NeedDeref:
		// Covering index: every column is embedded in the entry key.
		for _, kv := range kvs {
			row := e.newRow()
			if err := index.RowFromCoveringEntry(n.Index, n.Table, kv.Key, row, n.TableOffset); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	default:
		rows, err = e.derefEntries(n.Index, n.Table, n.TableOffset, kvs)
		if err != nil {
			return nil, err
		}
	}
	return e.filterResidual(rows, n.Residual)
}

// appendEntryRecordKeys decodes secondary index entries into the record
// keys they reference, appending to dst.
func appendEntryRecordKeys(dst [][]byte, ix *schema.Index, table *schema.Table, kvs []kvstore.KV) ([][]byte, error) {
	for _, kv := range kvs {
		pk, err := index.DecodeEntry(ix, table, kv.Key)
		if err != nil {
			return nil, err
		}
		dst = append(dst, index.RecordKeyFromPK(table, pk))
	}
	return dst, nil
}

// derefEntries resolves secondary index entries to full records with one
// batched request set, preserving entry order (rows whose record
// vanished — dangling entries — are skipped).
func (e *executor) derefEntries(ix *schema.Index, table *schema.Table, offset int, kvs []kvstore.KV) ([]value.Row, error) {
	keys, err := appendEntryRecordKeys(make([][]byte, 0, len(kvs)), ix, table, kvs)
	if err != nil {
		return nil, err
	}
	recs := e.getBatch(keys)
	var rows []value.Row
	for _, rec := range recs {
		if rec == nil {
			continue // dangling entry awaiting GC
		}
		row := e.newRow()
		if err := placeRecord(row, offset, rec); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runFKJoin extends each child row with at most one record of the
// joined table.
func (e *executor) runFKJoin(n *core.IndexFKJoin) ([]value.Row, error) {
	childRows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	e.nextRemoteOrdinal() // order preserved; no resumable position of its own
	keys := make([][]byte, len(childRows))
	for i, row := range childRows {
		pk, err := n.Keys.Eval(e.ctx.Params, row)
		if err != nil {
			return nil, err
		}
		keys[i] = index.RecordKeyFromPK(n.Table, pk)
	}
	recs := e.getBatch(keys)
	var rows []value.Row
	for i, rec := range recs {
		if rec == nil {
			continue // no matching row: inner join drops it
		}
		if err := placeRecord(childRows[i], n.TableOffset, rec); err != nil {
			return nil, err
		}
		rows = append(rows, childRows[i])
	}
	return e.filterResidual(rows, n.Residual)
}

// runSortedJoin fetches up to PerKeyLimit pre-sorted matches per child
// row and k-way merges the streams into the output order, stopping after
// limit rows (0 means all of them). A record is decoded only when it
// becomes its stream's head, so rows past the limit are never built.
// For paginated queries the cursor keeps one resume position per
// join-key stream — a shared position would skip tied sort values in
// sibling streams.
func (e *executor) runSortedJoin(n *core.SortedIndexJoin, limit int) ([]value.Row, error) {
	childRows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	ord, resumeBlob := e.nextRemoteOrdinal()
	resume := decodeStreamResume(resumeBlob)

	type perKey struct {
		prefix     []byte
		start, end []byte
		kvs        []kvstore.KV
		base       int       // position of kvs[0] in recs
		next       int       // next entry of kvs to decode
		head       value.Row // decoded row awaiting output; nil when drained
		last       []byte    // suffix of the last row this page consumed
	}
	scans := make([]perKey, len(childRows))
	for i, row := range childRows {
		jk, err := n.JoinKey.Eval(e.ctx.Params, row)
		if err != nil {
			return nil, err
		}
		var prefix []byte
		if n.Index.Primary {
			prefix = index.RecordPrefix(n.Table)
			for _, v := range jk {
				prefix = codec.AppendValue(prefix, v, false)
			}
		} else {
			prefix = index.ScanPrefix(n.Index, jk)
		}
		start, end := prefix, codec.PrefixEnd(prefix)
		// Resume this stream just past the last element it contributed
		// to a previous page.
		if suffix, ok := resume[string(prefix)]; ok {
			if n.Ascending {
				start = successor(append(append([]byte{}, prefix...), suffix...))
			} else {
				end = append(append([]byte{}, prefix...), suffix...)
			}
		}
		scans[i] = perKey{prefix: prefix, start: start, end: end}
	}

	fetch := func(sub *kvstore.Client, i int, scatter bool) {
		req := kvstore.RangeRequest{
			Start:   scans[i].start,
			End:     scans[i].end,
			Limit:   n.PerKeyLimit,
			Reverse: !n.Ascending,
		}
		if scatter {
			scans[i].kvs = sub.GetRangeScatter(req)
		} else {
			scans[i].kvs = sub.GetRange(req)
		}
	}
	switch e.ctx.Strategy {
	case Parallel:
		// All K per-key scans concurrently, each itself scatter-gathering
		// across the partitions its range spans.
		e.ctx.Client.Parallel(len(scans), func(sub *kvstore.Client, i int) { fetch(sub, i, true) })
	default:
		// Lazy and Simple both issue the per-key requests sequentially;
		// Lazy additionally fetches tuple by tuple.
		for i := range scans {
			if e.ctx.Strategy == Lazy {
				scans[i].kvs = e.fetchRange(scans[i].start, scans[i].end, n.PerKeyLimit, !n.Ascending)
			} else {
				fetch(e.ctx.Client, i, false)
			}
		}
	}

	// Resolve secondary-index entries from ALL streams with one batched
	// request set. (This used to dereference stream by stream — K
	// sequential MultiGets after the parallel range fetch, serializing K
	// round trips; now every operator costs a constant number of trips.)
	total := 0
	for i := range scans {
		scans[i].base = total
		total += len(scans[i].kvs)
	}
	var recs [][]byte // flat across streams, parallel to the scans' kvs
	if !n.Index.Primary {
		keys := make([][]byte, 0, total)
		for _, sc := range scans {
			keys, err = appendEntryRecordKeys(keys, n.Index, n.Table, sc.kvs)
			if err != nil {
				return nil, err
			}
		}
		recs = e.getBatch(keys)
	}

	// advance decodes stream i's next row that passes the residual into
	// its head, reusing a row the residual rejected.
	advance := func(i int) error {
		sc := &scans[i]
		var row value.Row
		for sc.next < len(sc.kvs) {
			kv := sc.kvs[sc.next]
			rec := kv.Value
			if !n.Index.Primary {
				rec = recs[sc.base+sc.next]
			}
			sc.next++
			if rec == nil {
				continue // dangling entry awaiting GC
			}
			if row == nil {
				row = e.newRow()
			}
			copy(row, childRows[i])
			if err := placeRecord(row, n.TableOffset, rec); err != nil {
				return err
			}
			// A stale entry (left by a half-completed update) sits at the
			// record's old sort position; skipping it keeps the stream in
			// merge order and the record's live entry emits it once.
			if !n.Index.Primary && !index.ProducesEntry(n.Index, n.Table, row[n.TableOffset:], kv.Key) {
				continue
			}
			keep, err := e.evalPreds(row, n.Residual)
			if err != nil {
				return err
			}
			if keep {
				sc.head = row
				return nil
			}
		}
		sc.head = nil
		return nil
	}
	for i := range scans {
		if err := advance(i); err != nil {
			return nil, err
		}
	}

	// Merge: a binary min-heap of the live streams, ordered by head and
	// then by stream, yields the smallest head at each step, a tie going
	// to the lowest stream. Every stream is already in MergeSort order, so
	// this is the stable sort of the concatenated streams. With an empty
	// MergeSort the order is stream-major and the winner stays on top at
	// constant cost. The winner's stream advances only when another row
	// is wanted.
	less := func(a, b int) bool {
		ha, hb := scans[a].head, scans[b].head
		if lessBySortKeys(ha, hb, n.MergeSort) {
			return true
		}
		return a < b && !lessBySortKeys(hb, ha, n.MergeSort)
	}
	live := make([]int, 0, len(scans))
	for i := range scans {
		if scans[i].head != nil {
			live = append(live, i)
		}
	}
	for i := len(live)/2 - 1; i >= 0; i-- {
		siftDown(live, i, less)
	}
	if limit <= 0 || limit > total {
		limit = total
	}
	out := make([]value.Row, 0, limit)
	for len(out) < limit && len(live) > 0 {
		sc := &scans[live[0]]
		out = append(out, sc.head)
		// Cursor state: per stream, the suffix of the last element
		// consumed by this page.
		if len(out) <= e.plan.PageSize {
			sc.last = suffixOf(sc.kvs[sc.next-1].Key, sc.prefix)
		}
		if len(out) == limit {
			break
		}
		if err := advance(live[0]); err != nil {
			return nil, err
		}
		if sc.head == nil {
			live[0] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		siftDown(live, 0, less)
	}
	// Streams this page did not touch keep their previous position.
	if e.plan.PageSize > 0 {
		next := make(map[string][]byte, len(resume))
		for k, v := range resume {
			next[k] = v
		}
		for _, sc := range scans {
			if sc.last != nil {
				next[string(sc.prefix)] = sc.last
			}
		}
		e.storeResume(ord, encodeStreamResume(next))
	}
	return out, nil
}

// siftDown restores the min-heap order of h below position i.
func siftDown(h []int, i int, less func(a, b int) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// encodeStreamResume serializes per-stream cursor positions.
func encodeStreamResume(m map[string][]byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := binary.AppendUvarint(nil, uint64(len(m)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(m[k])))
		buf = append(buf, m[k]...)
	}
	return buf
}

// decodeStreamResume parses encodeStreamResume output; nil or corrupt
// input yields an empty map (a fresh cursor).
func decodeStreamResume(b []byte) map[string][]byte {
	m := make(map[string][]byte)
	if len(b) == 0 {
		return m
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return m
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		kl, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < kl {
			return map[string][]byte{}
		}
		k := string(b[sz : sz+int(kl)])
		b = b[sz+int(kl):]
		vl, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < vl {
			return map[string][]byte{}
		}
		v := append([]byte{}, b[sz:sz+int(vl)]...)
		b = b[sz+int(vl):]
		m[k] = v
	}
	return m
}

// suffixOf slices the per-stream suffix out of an entry key. Stored keys
// are immutable once written, so aliasing the key's backing array is
// safe (the resume encoder copies the bytes it serializes).
func suffixOf(key []byte, prefix []byte) []byte {
	return key[len(prefix):]
}

func lessBySortKeys(a, b value.Row, keys []core.SortKey) bool {
	for _, k := range keys {
		c := value.Compare(a[k.Col], b[k.Col])
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}
