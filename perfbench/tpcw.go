package main

import (
	"fmt"
	"math/rand"
	"slices"

	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/schema"
	"piql/internal/value"
	"piql/internal/workload/tpcw"
)

// tpcwApp is the TPC-W ordering mix with the default configuration
// (600 customers per node, 10,000 items).
type tpcwApp struct {
	cfg              tpcw.Config
	customers, items int
	authors          int
	lastNames        []string // author last names present in the data
	titleWords       []string // first words of item titles
}

const (
	insertCartLine  = `INSERT INTO cart_line VALUES (?, ?, ?)`
	insertOrder     = `INSERT INTO orders VALUES (?, ?, ?, ?, ?)`
	insertOrderLine = `INSERT INTO order_line VALUES (?, ?, ?, ?)`
	deleteCartLine  = `DELETE FROM cart_line WHERE scl_sc_id = ? AND scl_i_id = ?`
)

func (a *tpcwApp) load(eng *engine.Engine, seed int64) error {
	s := eng.Session(nil)
	a.cfg = tpcw.DefaultConfig()
	a.cfg.Seed = seed
	for _, ddl := range tpcw.DDL(a.cfg) {
		if err := s.Exec(ddl); err != nil {
			return fmt.Errorf("tpcw ddl: %w", err)
		}
	}
	var err error
	if a.customers, a.items, err = tpcw.Load(s, a.cfg, nodes); err != nil {
		return err
	}
	// Search parameters come from the loaded data itself.
	cl, cat := eng.Cluster().NewClient(nil), eng.Catalog()
	authors, err := scanRows(cl, cat.Table("author"))
	if err != nil {
		return err
	}
	items, err := scanRows(cl, cat.Table("item"))
	if err != nil {
		return err
	}
	a.authors = len(authors)
	for _, r := range authors {
		a.lastNames = append(a.lastNames, r[2].S)
	}
	for _, r := range items {
		a.titleWords = append(a.titleWords, core.Tokenize(r[1].S)[0])
	}
	for _, l := range []*[]string{&a.lastNames, &a.titleWords} {
		slices.Sort(*l)
		*l = slices.Compact(*l)
	}
	return nil
}

func (a *tpcwApp) worker(s *engine.Session, id int64) (func() error, map[string]*engine.Prepared, error) {
	w, err := tpcw.NewWorker(s, a.cfg, a.customers, a.items, id+1)
	if err != nil {
		return nil, nil, err
	}
	return w.Interaction, w.Queries(), nil
}

// pass runs n pseudo-interactions, each executing every TPC-W statement
// once and one buy request/confirm cycle through the write path, and
// checks every result.
func (a *tpcwApp) pass(c *caller, rng *rand.Rand, n int) {
	q := func(label string, params ...value.Value) []value.Row {
		if r := c.query(statementName(label), c.qs[label], params...); r != nil {
			return r.Rows
		}
		return nil
	}
	for i := 0; i < n; i++ {
		done := c.interaction("tpcw.pass")
		cust := tpcw.CustomerName(rng.Intn(a.customers))

		rows := q("Home WI", value.Str(cust))
		c.check(len(rows) == 1 && rows[0][0].S == cust, "home(%s) returned %v", cust, rows)

		item := int64(rng.Intn(a.items))
		rows = q("Product Detail WI", value.Int(item))
		c.check(len(rows) == 1 && rows[0][0].I == item, "product_detail(%d) returned %v", item, rows)

		subject := tpcw.Subjects[rng.Intn(len(tpcw.Subjects))]
		rows = q("New Products WI", value.Str(subject))
		c.check(len(rows) >= 1 && len(rows) <= 50 && descending(rows, 2),
			"new_products(%s): %d rows, want 1..50 by descending pub date", subject, len(rows))

		name := a.lastNames[rng.Intn(len(a.lastNames))]
		rows = q("Search By Author Names WI", value.Str(name))
		c.check(len(rows) >= 1 && len(rows) <= 20, "search_by_author_names(%s): %d rows, want 1..20", name, len(rows))
		for _, r := range rows {
			c.check(r[2].S == name, "search_by_author_names(%s) returned author %v", name, r)
		}
		author := value.Int(int64(rng.Intn(a.authors)))
		if len(rows) > 0 {
			author = rows[rng.Intn(len(rows))][0]
		}
		rows = q("Search By Author WI", author)
		c.check(len(rows) <= 50 && ascending(rows, 1), "search_by_author(%v): %d rows, want <= 50 by title", author, len(rows))

		word := a.titleWords[rng.Intn(len(a.titleWords))]
		rows = q("Search By Title WI", value.Str(word))
		c.check(len(rows) >= 1 && len(rows) <= 50 && ascending(rows, 0),
			"search_by_title(%s): %d rows, want 1..50 by title", word, len(rows))
		for _, r := range rows {
			c.check(slices.Contains(core.Tokenize(r[0].S), word), "search_by_title(%s) returned %q", word, r[0].S)
		}

		rows = q("Order Display WI Get Customer", value.Str(cust))
		c.check(len(rows) == 1 && rows[0][0].S == cust, "order_display_get_customer(%s) returned %v", cust, rows)
		rows = q("Order Display WI Get Last Order", value.Str(cust))
		c.check(len(rows) == 1, "order_display_get_last_order(%s): %d rows, want 1", cust, len(rows))
		if len(rows) == 1 {
			oid := rows[0][0]
			rows = q("Order Display WI Get OrderLines", oid)
			c.check(len(rows) >= 1 && len(rows) <= a.cfg.MaxOrderLines,
				"order_display_get_orderlines(%v): %d rows, want 1..%d", oid, len(rows), a.cfg.MaxOrderLines)
		}

		a.buy(c, q, rng, cust, int64(1)<<62+int64(i))
		done()
	}
	c.expectStatements("insert_cart_line", "insert_orders", "insert_order_line", "delete_cart_line")
}

// buy fills cart id with 1-3 distinct items, renders it, turns it into
// order id and empties it, checking that every step reads its writes.
func (a *tpcwApp) buy(c *caller, q func(string, ...value.Value) []value.Row, rng *rand.Rand, cust string, id int64) {
	cart := value.Int(id)
	var items []int64
	for want := 1 + rng.Intn(3); len(items) < want; {
		if it := int64(rng.Intn(a.items)); !slices.Contains(items, it) {
			items = append(items, it)
		}
	}
	for _, it := range items {
		c.write("insert_cart_line", insertCartLine, cart, value.Int(it), value.Int(int64(1+rng.Intn(3))))
	}
	lines := q("Buy Request WI", cart)
	c.check(len(lines) == len(items), "buy_request(%d): %d rows, want the %d inserted lines", id, len(lines), len(items))
	for _, r := range lines {
		c.check(slices.Contains(items, r[0].I), "buy_request(%d) returned item %v, not in the cart", id, r[0])
	}
	if c.write("insert_orders", insertOrder, value.Int(id), value.Str(cust),
		value.Int(int64(40_000_000+rng.Intn(1_000_000))), value.Int(int64(1000+rng.Intn(10000))), value.Str("pending")) != nil {
		return
	}
	for k, r := range lines {
		c.write("insert_order_line", insertOrderLine, value.Int(id), value.Int(int64(k)), r[0], r[1])
	}
	for _, r := range lines {
		c.write("delete_cart_line", deleteCartLine, cart, r[0])
	}
}

func (a *tpcwApp) dml() []string {
	return []string{insertCartLine, insertOrder, insertOrderLine, deleteCartLine}
}

func (a *tpcwApp) probeInputs(cat *schema.Catalog) (*schema.Table, *schema.Table, func(*rand.Rand) value.Row) {
	return cat.Table("item"), cat.Table("item"), func(rng *rand.Rand) value.Row {
		return value.Row{value.Int(int64(rng.Intn(a.items)))}
	}
}

func (a *tpcwApp) piqlProbe(qs map[string]*engine.Prepared) pointQuery {
	return pointQuery{
		ddl:    tpcw.DDL(a.cfg),
		insert: `INSERT INTO customer VALUES (?, ?, ?, ?, ?, ?)`,
		row: func(i int) []value.Value {
			u := tpcw.CustomerName(i)
			return []value.Value{value.Str(u), value.Str("pw"), value.Str("ann"), value.Str("lee"),
				value.Str(u + "@example.com"), value.Int(int64(i % 50))}
		},
		sql: qs["Home WI"].SQL(),
		key: func(i int) value.Value { return value.Str(tpcw.CustomerName(i)) },
	}
}
