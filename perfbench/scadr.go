package main

import (
	"fmt"
	"math/rand"

	"piql/internal/engine"
	"piql/internal/schema"
	"piql/internal/value"
	"piql/internal/workload/scadr"
)

// scadrApp is the SCADr home page: 1000 users per node, 10 thoughts and
// 10 subscriptions per user, page size 10.
type scadrApp struct {
	cfg   scadr.Config
	users int
	seed  int64
}

const insertThought = `INSERT INTO thoughts VALUES (?, ?, ?)`

func (a *scadrApp) load(eng *engine.Engine, seed int64) error {
	s := eng.Session(nil)
	a.cfg = scadr.DefaultConfig()
	a.cfg.Seed = seed
	a.seed = seed
	for _, ddl := range scadr.DDL(a.cfg) {
		if err := s.Exec(ddl); err != nil {
			return fmt.Errorf("scadr ddl: %w", err)
		}
	}
	var err error
	a.users, err = scadr.Load(s, a.cfg, nodes)
	return err
}

func (a *scadrApp) worker(s *engine.Session, id int64) (func() error, map[string]*engine.Prepared, error) {
	// The worker seed also offsets the timestamps of the thoughts it
	// posts, so it is unique per worker and per benchmark seed.
	w, err := scadr.NewWorker(s, a.cfg, a.users, a.seed<<10|id)
	if err != nil {
		return nil, nil, err
	}
	return w.Interaction, w.Queries(), nil
}

// pass renders n home pages statement by statement, posting a thought on
// each, and checks every result against the loaded data's shape.
func (a *scadrApp) pass(c *caller, rng *rand.Rand, n int) {
	qs, page := c.qs, a.cfg.PageSize
	for i := 0; i < n; i++ {
		done := c.interaction("scadr.home_page")
		user := scadr.UserName(rng.Intn(a.users))
		me := value.Str(user)

		if r := c.query("find_user", qs["Find User"], me); r != nil {
			c.check(len(r.Rows) == 1 && r.Rows[0][0].S == user,
				"find_user(%s) returned %v", user, r.Rows)
		}
		followed := map[string]bool{}
		if r := c.query("users_followed", qs["Users Followed"], me); r != nil {
			for _, row := range r.Rows {
				followed[row[0].S] = true
			}
			c.check(len(r.Rows) == a.cfg.SubsPerUser && len(followed) == len(r.Rows),
				"users_followed(%s) returned %d rows (%d distinct), want %d", user, len(r.Rows), len(followed), a.cfg.SubsPerUser)
		}
		if r := c.query("thoughtstream", qs["Thoughtstream"], me); r != nil {
			c.check(len(r.Rows) >= 1 && len(r.Rows) <= page && descending(r.Rows, 1),
				"thoughtstream(%s): %d rows, want 1..%d in timestamp-descending order", user, len(r.Rows), page)
			for _, row := range r.Rows {
				c.check(followed[row[0].S], "thoughtstream(%s) shows %s, whom %s does not follow", user, row[0].S, user)
			}
		}
		// A timestamp above every loaded and posted one: the new thought
		// must head the user's recent thoughts.
		ts := int64(1)<<62 + int64(i)
		if c.write("insert_thought", insertThought, me, value.Int(ts), value.Str("benchmark thought")) == nil {
			if r := c.query("recent_thoughts", qs["Recent Thoughts"], me); r != nil {
				c.check(len(r.Rows) == page && descending(r.Rows, 0) && r.Rows[0][0].I == ts,
					"recent_thoughts(%s): %d rows, want %d in timestamp-descending order headed by %d", user, len(r.Rows), page, ts)
			}
		}
		done()
	}
	c.expectStatements("insert_thought")
}

func (a *scadrApp) dml() []string { return []string{insertThought} }

func (a *scadrApp) probeInputs(cat *schema.Catalog) (*schema.Table, *schema.Table, func(*rand.Rand) value.Row) {
	return cat.Table("users"), cat.Table("thoughts"), func(rng *rand.Rand) value.Row {
		return value.Row{value.Str(scadr.UserName(rng.Intn(a.users)))}
	}
}

func (a *scadrApp) piqlProbe(qs map[string]*engine.Prepared) pointQuery {
	return pointQuery{
		ddl:    scadr.DDL(a.cfg),
		insert: `INSERT INTO users VALUES (?, ?, ?)`,
		row: func(i int) []value.Value {
			return []value.Value{value.Str(scadr.UserName(i)), value.Str("hunter2"), value.Str("Berkeley")}
		},
		sql: qs["Find User"].SQL(),
		key: func(i int) value.Value { return value.Str(scadr.UserName(i)) },
	}
}
