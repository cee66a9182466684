package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

// newSplitRange builds an immediate-mode cluster of n keys rebalanced
// over several partitions and returns it with a client and the first
// partition boundary.
func newSplitRange(tb testing.TB, n int) (*Cluster, *Client, []byte) {
	tb.Helper()
	c, cl := newImmediate(4, 2)
	for i := 0; i < n; i++ {
		cl.Put(key(i), val(i))
	}
	c.Rebalance()
	splits := c.Splits()
	if len(splits) < 2 {
		tb.Fatalf("rebalance produced only %d partitions", len(splits)+1)
	}
	return c, cl, splits[0]
}

// straddle returns a request for limit keys starting half of them below
// boundary, so that the range spans the partitions on both sides of it.
func straddle(cl *Client, boundary []byte, limit int, reverse bool) RangeRequest {
	below := cl.GetRange(RangeRequest{End: boundary, Limit: limit / 2, Reverse: true})
	return RangeRequest{Start: below[len(below)-1].Key, Limit: limit, Reverse: reverse}
}

// TestRangeResultOwnership: a range read's result is allocated at its
// exact length and belongs to the caller — a later range read through
// the same client, over other keys, leaves it unchanged — for GetRange
// and GetRangeScatter over one partition and over several, in both
// directions. A warmed single-partition GetRange allocates only its
// result.
func TestRangeResultOwnership(t *testing.T) {
	_, cl, boundary := newSplitRange(t, 400)
	if bytes.Compare(key(20), boundary) >= 0 {
		t.Fatalf("first partition ends at %q, below key(20)", boundary)
	}
	reads := map[string]func(RangeRequest) []KV{
		"GetRange":        cl.GetRange,
		"GetRangeScatter": cl.GetRangeScatter,
	}
	shapes := map[string]func(reverse bool) RangeRequest{
		"single": func(reverse bool) RangeRequest {
			return RangeRequest{Start: key(0), End: key(10), Reverse: reverse}
		},
		"multi": func(reverse bool) RangeRequest { return straddle(cl, boundary, 10, reverse) },
	}
	for readName, read := range reads {
		for shapeName, shape := range shapes {
			for _, reverse := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/reverse=%v", readName, shapeName, reverse)
				req := shape(reverse)
				first := read(req)
				if len(first) != 10 || len(first) != cap(first) {
					t.Fatalf("%s: len %d cap %d, want both 10", name, len(first), cap(first))
				}
				want := make([]KV, len(first))
				copy(want, first)
				for i := 1; i < len(want); i++ {
					if c := bytes.Compare(want[i-1].Key, want[i].Key); (c > 0) != reverse || c == 0 {
						t.Fatalf("%s: keys out of order at %d: %q, %q", name, i, want[i-1].Key, want[i].Key)
					}
				}
				second := read(RangeRequest{Start: key(300), End: key(320), Reverse: reverse})
				if len(second) != 20 || len(second) != cap(second) {
					t.Fatalf("%s: second read len %d cap %d, want both 20", name, len(second), cap(second))
				}
				for i := range want {
					if !bytes.Equal(first[i].Key, want[i].Key) || !bytes.Equal(first[i].Value, want[i].Value) {
						t.Fatalf("%s: result changed by the next read at %d: %q, was %q", name, i, first[i].Key, want[i].Key)
					}
				}
			}
		}
	}

	req := RangeRequest{Start: key(0), End: key(10)}
	cl.GetRange(req)
	if allocs := testing.AllocsPerRun(100, func() { cl.GetRange(req) }); allocs != 1 {
		t.Fatalf("warmed single-partition GetRange: %v allocs, want 1 (the result)", allocs)
	}
}

// BenchmarkClientGetRange: an immediate-mode 10-row range read inside
// one partition, forward and reverse.
func BenchmarkClientGetRange(b *testing.B) {
	_, cl, _ := newSplitRange(b, 400)
	for _, reverse := range []bool{false, true} {
		b.Run(fmt.Sprintf("reverse=%v", reverse), func(b *testing.B) {
			req := RangeRequest{Start: key(0), End: key(50), Limit: 10, Reverse: reverse}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if kvs := cl.GetRange(req); len(kvs) != 10 {
					b.Fatalf("got %d rows, want 10", len(kvs))
				}
			}
		})
	}
}

// BenchmarkClientGetRangeScatter: an immediate-mode 10-row scatter read
// across a partition boundary.
func BenchmarkClientGetRangeScatter(b *testing.B) {
	_, cl, boundary := newSplitRange(b, 400)
	req := straddle(cl, boundary, 10, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if kvs := cl.GetRangeScatter(req); len(kvs) != 10 {
			b.Fatalf("got %d rows, want 10", len(kvs))
		}
	}
}
