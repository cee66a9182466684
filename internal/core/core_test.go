package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"piql/internal/parser"
	"piql/internal/schema"
)

// scadrCatalog builds the SCADr schema from Section 8.1.2: users,
// subscriptions (with the paper's cardinality limit), thoughts.
func scadrCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	ddls := []string{
		`CREATE TABLE users (
			username VARCHAR(20),
			password VARCHAR(20),
			hometown VARCHAR(30),
			PRIMARY KEY (username)
		)`,
		`CREATE TABLE subscriptions (
			owner VARCHAR(20),
			target VARCHAR(20),
			approved BOOLEAN,
			PRIMARY KEY (owner, target),
			FOREIGN KEY (target) REFERENCES users,
			CARDINALITY LIMIT 100 (owner)
		)`,
		`CREATE TABLE thoughts (
			owner VARCHAR(20),
			timestamp INT,
			text VARCHAR(140),
			PRIMARY KEY (owner, timestamp)
		)`,
	}
	for _, ddl := range ddls {
		stmt, err := parser.Parse(ddl)
		if err != nil {
			t.Fatalf("parse DDL: %v", err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatalf("add table: %v", err)
		}
	}
	return cat
}

func compile(t *testing.T, cat *schema.Catalog, src string) *Plan {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := Compile(cat, stmt.(*parser.Select))
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return plan
}

func compileErr(t *testing.T, cat *schema.Catalog, src string) *NotScaleIndependentError {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Compile(cat, stmt.(*parser.Select))
	if err == nil {
		t.Fatalf("compile %q succeeded, want scale-independence error", src)
	}
	var nsi *NotScaleIndependentError
	if !errors.As(err, &nsi) {
		t.Fatalf("compile %q: error %v is not a NotScaleIndependentError", src, err)
	}
	return nsi
}

const thoughtstreamSQL = `
	SELECT thoughts.*
	FROM subscriptions s JOIN thoughts
	WHERE thoughts.owner = s.target
	  AND s.owner = [1: uname]
	  AND s.approved = true
	ORDER BY thoughts.timestamp DESC
	LIMIT 10`

// TestThoughtstreamPlan reproduces the Figure 3 compilation end to end.
func TestThoughtstreamPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, thoughtstreamSQL)

	// Physical shape (Fig. 3d): Project → Stop 10 → SortedIndexJoin →
	// IndexScan(subscriptions, residual approved).
	proj, ok := plan.Root.(*LocalProject)
	if !ok {
		t.Fatalf("root = %T", plan.Root)
	}
	stop, ok := proj.Child().(*LocalStop)
	if !ok || stop.K != 10 {
		t.Fatalf("below project: %s", proj.Child().Label())
	}
	join, ok := stop.Child().(*SortedIndexJoin)
	if !ok {
		t.Fatalf("below stop: %s", stop.Child().Label())
	}
	if join.PerKeyLimit != 10 {
		t.Errorf("SortedIndexJoin limit hint = %d, want 10", join.PerKeyLimit)
	}
	if join.Ascending {
		t.Error("timestamp DESC should scan the (owner, timestamp) primary index in reverse")
	}
	if !join.Index.Primary {
		t.Errorf("join should reuse thoughts' primary index, got %s", join.Index)
	}
	if join.NeedDeref {
		t.Error("primary-index join must not dereference")
	}
	scan, ok := join.Child().(*IndexScan)
	if !ok {
		t.Fatalf("join child: %s", join.Child().Label())
	}
	if scan.DataStopCard != 100 {
		t.Errorf("subscriptions data-stop card = %d, want 100", scan.DataStopCard)
	}
	if len(scan.Residual) != 1 || !strings.Contains(scan.Residual[0].String(), "approved") {
		t.Errorf("approved should be a residual local selection, got %v", scan.Residual)
	}
	if !scan.Index.Primary {
		t.Errorf("subscriptions scan should use the (owner, target) primary index, got %s", scan.Index)
	}

	// Static bounds: 1 range request + 100 sorted-join range requests;
	// tuples: 100 subs × 10 thoughts before the stop.
	if got := plan.OpBound(); got != 101 {
		t.Errorf("OpBound = %d, want 101", got)
	}
	if got := plan.TupleBound(); got != 10 {
		t.Errorf("TupleBound = %d, want 10 (after stop)", got)
	}
}

// TestThoughtstreamLogicalExplain checks the Phase I normal form from
// Fig. 3(c): the data-stop sits below `approved` and above `owner =`.
func TestThoughtstreamLogicalExplain(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, thoughtstreamSQL)
	logical := plan.ExplainLogical()
	above := strings.Index(logical, "approved")
	ds := strings.Index(logical, "DataStop 100")
	below := strings.Index(logical, "Selection s.owner =")
	if above < 0 || ds < 0 || below < 0 {
		t.Fatalf("logical explain missing pieces:\n%s", logical)
	}
	if !(above < ds && ds < below) {
		t.Errorf("data-stop not pushed past the approved predicate:\n%s", logical)
	}
}

// TestThoughtstreamWithoutCardinalityRejected reproduces the assistant
// interaction from Section 6.4: drop the constraint and the compiler
// must reject the query, pointing at subscriptions.
func TestThoughtstreamWithoutCardinalityRejected(t *testing.T) {
	cat := schema.NewCatalog()
	for _, ddl := range []string{
		`CREATE TABLE users (username VARCHAR(20), PRIMARY KEY (username))`,
		`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN, PRIMARY KEY (owner, target))`,
		`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, text VARCHAR(140), PRIMARY KEY (owner, timestamp))`,
	} {
		stmt, _ := parser.Parse(ddl)
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}
	nsi := compileErr(t, cat, thoughtstreamSQL)
	if !strings.Contains(nsi.Segment, "subscriptions") && !strings.Contains(nsi.Segment, "s") {
		t.Errorf("segment should point at subscriptions: %q", nsi.Segment)
	}
	found := false
	for _, s := range nsi.Suggestions {
		if strings.Contains(s, "CARDINALITY LIMIT") {
			found = true
		}
	}
	if !found {
		t.Errorf("assistant should suggest a cardinality limit: %v", nsi.Suggestions)
	}
}

// TestSubscriberIntersectionPlan: the Section 8.3 query compiles to
// bounded random lookups (PKLookup) with one key per IN element.
func TestSubscriberIntersectionPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT * FROM subscriptions
		WHERE target = [1: targetUser]
		  AND owner IN ([2: f1], [3: f2], [4: f3], [5: f4], [6: f5])`)
	proj := plan.Root.(*LocalProject)
	lk, ok := proj.Child().(*PKLookup)
	if !ok {
		t.Fatalf("expected PKLookup, got %s", proj.Child().Label())
	}
	if len(lk.Keys) != 5 {
		t.Errorf("keys = %d, want 5", len(lk.Keys))
	}
	if got := plan.OpBound(); got != 5 {
		t.Errorf("OpBound = %d, want 5", got)
	}
}

// TestFindUserPlan: single-record lookup by primary key (Class I).
func TestFindUserPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `SELECT * FROM users WHERE username = [1: u]`)
	if _, ok := plan.Root.(*LocalProject).Child().(*PKLookup); !ok {
		t.Fatalf("plan:\n%s", plan.Explain())
	}
	if plan.OpBound() != 1 {
		t.Errorf("OpBound = %d, want 1", plan.OpBound())
	}
}

// TestRecentThoughtsPlan: prefix scan over the primary index in reverse,
// bounded purely by the PAGINATE stop.
func TestRecentThoughtsPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT * FROM thoughts WHERE owner = [1: u]
		ORDER BY timestamp DESC PAGINATE 10`)
	scan, ok := plan.Root.(*LocalProject).Child().(*LocalStop).Child().(*IndexScan)
	if !ok {
		t.Fatalf("plan:\n%s", plan.Explain())
	}
	if scan.LimitHint != 10 || scan.Ascending || !scan.Index.Primary || scan.NeedDeref {
		t.Errorf("scan = %s", scan.Label())
	}
	if plan.PageSize != 10 {
		t.Errorf("PageSize = %d", plan.PageSize)
	}
	if plan.OpBound() != 1 {
		t.Errorf("OpBound = %d, want 1", plan.OpBound())
	}
}

// TestUsersFollowedPlan: subscriptions by owner joined FK-style to users.
func TestUsersFollowedPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT u.* FROM subscriptions s JOIN users u
		WHERE u.username = s.target AND s.owner = [1: me]`)
	proj := plan.Root.(*LocalProject)
	fk, ok := proj.Child().(*IndexFKJoin)
	if !ok {
		t.Fatalf("expected IndexFKJoin, got %s", proj.Child().Label())
	}
	scan, ok := fk.Child().(*IndexScan)
	if !ok || scan.DataStopCard != 100 {
		t.Fatalf("join child: %s", fk.Child().Label())
	}
	// 1 range + 100 dereferencing gets.
	if got := plan.OpBound(); got != 101 {
		t.Errorf("OpBound = %d, want 101", got)
	}
}

// TestTokenSearchPlan reproduces the Section 5.3 index selection: the
// compiler derives Items(Token(I_TITLE), I_TITLE, I_ID) for the search-
// by-title query.
func TestTokenSearchPlan(t *testing.T) {
	cat := schema.NewCatalog()
	for _, ddl := range []string{
		`CREATE TABLE author (a_id INT, a_fname VARCHAR(20), a_lname VARCHAR(20), PRIMARY KEY (a_id))`,
		`CREATE TABLE item (i_id INT, i_a_id INT, i_title VARCHAR(60), i_pub_date INT, i_subject VARCHAR(60),
			PRIMARY KEY (i_id), FOREIGN KEY (i_a_id) REFERENCES author)`,
	} {
		stmt, _ := parser.Parse(ddl)
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}
	plan := compile(t, cat, `
		SELECT i_title, i_id, a_fname, a_lname
		FROM item JOIN author
		WHERE i_a_id = a_id AND i_title CONTAINS [1: titleWord]
		ORDER BY i_title
		LIMIT 50`)
	// The base scan must use a token index with i_title then i_id.
	var scan *IndexScan
	for n := plan.Root; n != nil; n = n.Child() {
		if s, ok := n.(*IndexScan); ok {
			scan = s
		}
	}
	if scan == nil {
		t.Fatalf("no IndexScan in plan:\n%s", plan.Explain())
	}
	sig := scan.Index.String()
	if !strings.Contains(sig, "Token(i_title)") || !strings.Contains(sig, "i_id") {
		t.Errorf("index = %s, want Token(i_title), i_title, i_id", sig)
	}
	if scan.LimitHint != 50 {
		t.Errorf("limit hint = %d, want 50", scan.LimitHint)
	}
	// 1 range request + 50 dereferencing gets + 50 author gets.
	if got := plan.OpBound(); got != 101 {
		t.Errorf("OpBound = %d, want 101", got)
	}
	var fk *IndexFKJoin
	for n := plan.Root; n != nil; n = n.Child() {
		if j, ok := n.(*IndexFKJoin); ok {
			fk = j
		}
	}
	if fk == nil {
		t.Fatalf("no IndexFKJoin in plan:\n%s", plan.Explain())
	}
}

func TestLimitWithoutJoinIsClassI(t *testing.T) {
	cat := scadrCatalog(t)
	// Fixed LIMIT, no joins, no predicates: bounded (Class I).
	plan := compile(t, cat, `SELECT * FROM users LIMIT 25`)
	if plan.OpBound() == Unbounded || plan.TupleBound() != 25 {
		t.Errorf("bounds = %d ops, %d tuples", plan.OpBound(), plan.TupleBound())
	}
}

func TestRejections(t *testing.T) {
	cat := scadrCatalog(t)
	cases := []struct {
		src     string
		wantSug string // substring expected in some suggestion
	}{
		{`SELECT * FROM users`, "PAGINATE"},
		{`SELECT * FROM thoughts WHERE owner = [1: u]`, "LIMIT"},
		{`SELECT * FROM users WHERE hometown = 'SF'`, "CARDINALITY LIMIT"},
		{`SELECT * FROM users WHERE username LIKE 'bob%' LIMIT 5`, "CONTAINS"},
		{`SELECT * FROM users, thoughts LIMIT 5`, "join predicate"},
		{`SELECT * FROM thoughts WHERE owner != 'x' LIMIT 5`, ""},
	}
	for _, c := range cases {
		nsi := compileErr(t, cat, c.src)
		if c.wantSug == "" {
			continue
		}
		found := false
		for _, s := range nsi.Suggestions {
			if strings.Contains(s, c.wantSug) {
				found = true
			}
		}
		if !found {
			t.Errorf("%q: suggestions %v missing %q", c.src, nsi.Suggestions, c.wantSug)
		}
	}
}

func TestIndexReuseAcrossCompiles(t *testing.T) {
	cat := scadrCatalog(t)
	p1 := compile(t, cat, `SELECT * FROM users WHERE hometown = 'SF' AND username = 'x'`)
	before := len(cat.Indexes("users"))
	p2 := compile(t, cat, `SELECT * FROM users WHERE hometown = 'SF' AND username = 'x'`)
	after := len(cat.Indexes("users"))
	if before != after {
		t.Errorf("recompilation created %d new indexes", after-before)
	}
	_ = p1
	_ = p2
}

func TestAggregateOverBoundedInput(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT COUNT(*) FROM subscriptions WHERE owner = [1: u]`)
	if _, ok := plan.Root.(*LocalStop); ok {
		t.Fatal("no stop expected")
	}
	agg, ok := plan.Root.(*LocalAgg)
	if !ok {
		t.Fatalf("root = %T", plan.Root)
	}
	if _, ok := agg.Child().(*IndexScan); !ok {
		t.Fatalf("agg child = %s", agg.Child().Label())
	}
	if plan.OpBound() == Unbounded {
		t.Error("aggregate plan unbounded")
	}
}

func TestExplainOutputs(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, thoughtstreamSQL)
	phys := plan.Explain()
	for _, want := range []string{"SortedIndexJoin", "IndexScan", "Stop(10)", "bound: 101"} {
		if !strings.Contains(phys, want) {
			t.Errorf("physical explain missing %q:\n%s", want, phys)
		}
	}
	logical := plan.ExplainLogical()
	for _, want := range []string{"Stop 10", "Sort", "Join", "DataStop 100", "Relation subscriptions"} {
		if !strings.Contains(logical, want) {
			t.Errorf("logical explain missing %q:\n%s", want, logical)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The Quick-Brown fox_2, jumps!")
	want := []string{"the", "quick", "brown", "fox_2", "jumps"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
	// Multi-byte runes (and a stray invalid byte) separate words.
	if got, want := Tokenize("héllo Wörld\xffx ü"), []string{"h", "llo", "w", "rld", "x"}; !slices.Equal(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("empty tokenize = %v", toks)
	}
}

func TestInequalityRangeScan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT * FROM thoughts
		WHERE owner = [1: u] AND timestamp > 1000
		ORDER BY timestamp DESC LIMIT 5`)
	scan, ok := plan.Root.(*LocalProject).Child().(*LocalStop).Child().(*IndexScan)
	if !ok {
		t.Fatalf("plan:\n%s", plan.Explain())
	}
	if scan.Lower == nil {
		t.Fatal("missing lower bound")
	}
	if scan.LimitHint != 5 {
		t.Errorf("limit hint = %d", scan.LimitHint)
	}
}

func TestRangeNotFirstSortColumnRejected(t *testing.T) {
	cat := scadrCatalog(t)
	// Inequality on timestamp but sort by text first: non-contiguous.
	compileErr(t, cat, `
		SELECT * FROM thoughts
		WHERE owner = [1: u] AND timestamp > 1000
		ORDER BY text, timestamp LIMIT 5`)
}
