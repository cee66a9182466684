package engine

import (
	"fmt"
	"slices"
	"testing"

	"piql/internal/exec"
	"piql/internal/value"
)

// TestProjectionInPlace: Project writes each output row into the front
// of its own combined row (users: username, hometown, bio). A projection
// wider than that row, with columns repeated, and a narrower one that
// moves columns between slots must both produce the right values under
// every strategy, and no two rows of one result or of successive
// PAGINATE pages may share a backing array.
func TestProjectionInPlace(t *testing.T) {
	s := newRoundTripFixture(t)
	const wide = `SELECT username, hometown, username, hometown, username FROM users`
	for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
		s.SetStrategy(strat)
		q, err := s.Prepare(wide + ` WHERE username = ?`)
		if err != nil {
			t.Fatal(err)
		}
		var rows []value.Row
		for _, c := range []struct{ user, home string }{{"u01", "h0"}, {"u04", "h1"}} {
			res, err := q.Execute(s, value.Str(c.user))
			if err != nil {
				t.Fatal(err)
			}
			want := []string{c.user, c.home, c.user, c.home, c.user}
			if len(res.Rows) != 1 || !slices.Equal(strs(res.Rows[0]), want) {
				t.Fatalf("%v %s: got %v, want [%v]", strat, c.user, res.Rows, want)
			}
			rows = append(rows, res.Rows...)
		}

		shapes := []struct {
			sql  string
			cols func(user string) []string
		}{
			{wide + ` WHERE hometown = 'h0'`, func(u string) []string { return []string{u, "h0", u, "h0", u} }},
			{`SELECT hometown, username FROM users WHERE hometown = 'h0'`, func(u string) []string { return []string{"h0", u} }},
		}
		for _, sh := range shapes {
			res, err := s.Query(sh.sql + ` LIMIT 3`)
			if err != nil {
				t.Fatal(err)
			}
			var pages []value.Row
			q, err := s.Prepare(sh.sql + ` PAGINATE 2`)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := q.Paginate()
			if err != nil {
				t.Fatal(err)
			}
			for !cur.Done() {
				page, err := cur.Next(s)
				if err != nil {
					t.Fatal(err)
				}
				pages = append(pages, page.Rows...)
			}
			for _, got := range [][]value.Row{res.Rows, pages} {
				if len(got) != 3 {
					t.Fatalf("%v %q: got %d rows, want 3", strat, sh.sql, len(got))
				}
				for i, row := range got {
					if u := fmt.Sprintf("u%02d", i); !slices.Equal(strs(row), sh.cols(u)) {
						t.Fatalf("%v %q row %d: got %v, want %v", strat, sh.sql, i, strs(row), sh.cols(u))
					}
				}
			}
			rows = append(rows, res.Rows...)
			rows = append(rows, pages...)
		}
		assertDisjointRows(t, rows)
	}
}

// strs returns a row's values as strings.
func strs(row value.Row) []string {
	out := make([]string, len(row))
	for i, v := range row {
		out[i] = v.S
	}
	return out
}

// assertDisjointRows fails if any two rows share backing storage: it
// marks every slot up to each row's capacity with the row's own number,
// in order, then requires every row to still hold only its own mark.
func assertDisjointRows(t *testing.T, rows []value.Row) {
	t.Helper()
	for i, row := range rows {
		full := row[:cap(row)]
		for j := range full {
			full[j] = value.Int(int64(i))
		}
	}
	for i, row := range rows {
		for _, v := range row[:cap(row)] {
			if v.I != int64(i) {
				t.Fatalf("row %d shares its backing array with row %d", i, v.I)
			}
		}
	}
}
