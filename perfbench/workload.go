package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"piql/internal/codec"
	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/sim"
	"piql/internal/value"
)

// nodes is the storage-node count of every workload's cluster.
const nodes = 4

// clusterSeed seeds the simulated testbed: replica choice and, on the
// simulator, the sampled round trips and each node's "cloud weather".
// It is fixed, like running every seed on the same hardware; the
// workload seed drives only the inputs (data, parameters, mix).
const clusterSeed = 1

// workload is one named benchmark input: an application, the cluster
// mode it runs in, and its client count.
type workload struct {
	sim     bool // simulated cluster (virtual time) instead of immediate mode
	clients int  // closed-loop clients: goroutines, or simulated processes
	newApp  func() app
}

var workloads = map[string]workload{
	// SCADr home page, read-mostly and join-heavy: exec joins and sorts,
	// the kvstore fan-out and node reads.
	"scadr-home": {clients: 2, newApp: func() app { return &scadrApp{} }},
	// TPC-W ordering mix: a third of the interactions write through
	// Session.Exec (parser, index maintenance, kvstore writes).
	"tpcw-ordering": {clients: 2, newApp: func() app { return &tpcwApp{} }},
	// SCADr on the simulated cluster: the only workload where a KV round
	// trip costs (modelled) time, and the only one using the sim kernel.
	"scadr-sim": {sim: true, clients: 20, newApp: func() app { return &scadrApp{} }},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// app is a benchmark application: its schema and data, its client
// workers, its per-statement pass and the inputs of the layer probes.
type app interface {
	// load creates the schema and loads the seed's data.
	load(eng *engine.Engine, seed int64) error
	// worker prepares one client's interaction loop; id is unique per
	// fixture. It also returns the worker's named statements.
	worker(s *engine.Session, id int64) (func() error, map[string]*engine.Prepared, error)
	// pass runs n pseudo-interactions through c that execute every named
	// statement (c.qs) and write, checking the shape of every result.
	pass(c *caller, rng *rand.Rand, n int)
	// dml is the workload's write SQL text.
	dml() []string
	// probeInputs names the tables whose keys and rows the layer probes
	// use: point lookups go to pointTable keys made by pointKey, range
	// reads and row codecs use rowTable.
	probeInputs(cat *schema.Catalog) (pointTable, rowTable *schema.Table, pointKey func(*rand.Rand) value.Row)
	// piqlProbe describes the public-API point query probe.
	piqlProbe(qs map[string]*engine.Prepared) pointQuery
}

// pointQuery is a point lookup through the public piql API: a schema, a
// row generator to load, and the query with its parameter.
type pointQuery struct {
	ddl    []string
	insert string
	row    func(i int) []value.Value
	sql    string
	key    func(i int) value.Value
}

// fixture is one set-up cluster with its data loaded.
type fixture struct {
	env     *sim.Env // nil in immediate mode
	cluster *kvstore.Cluster
	eng     *engine.Engine
	app     app
}

// setup builds a 4-node, RF 2 cluster, loads the seed's data, warms the
// plan cache (building every index the statements use) and rebalances.
func setup(w workload, seed int64) (*fixture, error) {
	fx := &fixture{app: w.newApp()}
	if w.sim {
		fx.env = sim.NewEnv()
	}
	fx.cluster = kvstore.New(kvstore.Config{Nodes: nodes, ReplicationFactor: 2, Seed: clusterSeed}, fx.env)
	fx.eng = engine.New(fx.cluster)
	if err := fx.app.load(fx.eng, seed); err != nil {
		return nil, err
	}
	if _, _, err := fx.app.worker(fx.eng.Session(nil), 0); err != nil {
		return nil, fmt.Errorf("warm plan cache: %w", err)
	}
	fx.cluster.Rebalance()
	return fx, nil
}

// session opens an engine session with the Parallel strategy.
func (fx *fixture) session(p *sim.Proc) *engine.Session {
	s := fx.eng.Session(p)
	s.SetStrategy(exec.Parallel)
	return s
}

// statementName turns a workload's statement label ("Order Display WI
// Get OrderLines") into a metric name component
// ("order_display_get_orderlines").
func statementName(label string) string {
	label = strings.ReplaceAll(label, " WI", "")
	return strings.ToLower(strings.ReplaceAll(label, " ", "_"))
}

// scanRows reads every record of t through a fresh client and decodes
// it. It runs only during set-up and probes.
func scanRows(cl *kvstore.Client, t *schema.Table) ([]value.Row, error) {
	prefix := index.RecordPrefix(t)
	kvs := cl.GetRange(kvstore.RangeRequest{Start: prefix, End: codec.PrefixEnd(prefix)})
	rows := make([]value.Row, len(kvs))
	for i, kv := range kvs {
		r, err := value.DecodeRow(kv.Value)
		if err != nil {
			return nil, fmt.Errorf("decode %s record: %w", t.Name, err)
		}
		rows[i] = r
	}
	return rows, nil
}
