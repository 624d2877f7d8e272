package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/byteslice"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/workloads"
)

// spec is one workload: the tables it serves, the shapes it sends, and
// the topology that serves them.
type spec struct {
	tpchRows, tpcdsRows int
	// shards > 0 range-splits the tables across that many shard daemons
	// behind a coordinator; 0 serves them from one daemon.
	shards int
	// clients is the closed loop's width.
	clients int
	// setups is how often a run sets the workload up; setup_s is the
	// median.
	setups int
	// cold gives every request a fresh limit (a plan key no earlier
	// request used) and skips the warm-up pass.
	cold bool
	// shapes is the mix; a pass sends each of them repeat times (0
	// counts as 1), and each of once one time.
	shapes []string
	repeat int
	once   []string
}

// warmMix is every servable shape: q10 and q18 are left out because a
// default daemon spends about 10 s in watchdog retries on each.
var warmMix = []string{
	"tpch.q1", "tpch.q2", "tpch.q3", "tpch.q7", "tpch.q9", "tpch.q13", "tpch.q16",
	"tpcds.q36", "tpcds.q53", "tpcds.q67", "tpcds.q89",
}

// The cold workload adds q10 and q18, once per pass: each holds its
// client for about 10 s of watchdog retries, and an unweighted pass
// yields only 11 latency samples per 12 s. Eight of each other shape
// fill the other client's time while they do.
//
// warm and cold run one client per CPU of the reference 2-CPU machine.
// sharded runs one: each of its requests already runs on three shards
// at once, and a second client would put six queries on two CPUs.
//
// A cold setup takes well under a second, so it is repeated more often
// for a steady median.
var specs = map[string]spec{
	"warm":    {tpchRows: 1_000_000, tpcdsRows: 250_000, clients: 2, setups: 2, shapes: warmMix},
	"cold":    {tpchRows: 100_000, tpcdsRows: 100_000, clients: 2, setups: 5, cold: true, shapes: warmMix, repeat: 8, once: []string{"tpch.q10", "tpch.q18"}},
	"sharded": {tpchRows: 1_000_000, tpcdsRows: 250_000, clients: 1, setups: 2, shards: 3, shapes: warmMix},
}

// maxColdLimit bounds the limits cold requests draw without repeats, so
// it also bounds the requests one cold run can make.
const maxColdLimit = 1000

// shape is one query of the mix: its wire request and the engine's own
// answer to it, computed once with a direct engine.RunContext.
type shape struct {
	id     string
	table  *table.Table
	query  engine.Query
	req    server.QueryRequest
	oracle *engine.Result
}

// tableSeed is mcsd's default -seed. The tables are the ones a default
// daemon loads; the benchmark's own seed drives the requests.
const tableSeed = 1

// genTables builds the workload's two WideTables as mcsd's loader does.
func genTables(sp spec) ([]*table.Table, error) {
	h, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: sp.tpchRows, Seed: tableSeed})
	if err != nil {
		return nil, fmt.Errorf("generate tpch: %w", err)
	}
	d, err := datagen.TPCDS(datagen.TPCDSConfig{SF: 1, Rows: sp.tpcdsRows, Seed: tableSeed + 2})
	if err != nil {
		return nil, fmt.Errorf("generate tpcds: %w", err)
	}
	return []*table.Table{h, d}, nil
}

// buildShapes binds the workload's shapes to the generated tables and
// converts each to its wire request.
func buildShapes(sp spec, tables []*table.Table) ([]*shape, error) {
	byID := map[string]workloads.Item{}
	for _, it := range append(workloads.TPCHQueries(tables[0], ""), workloads.TPCDSQueries(tables[1])...) {
		byID[it.ID] = it
	}
	out := make([]*shape, 0, len(sp.once)+len(sp.shapes))
	for _, id := range append(append([]string(nil), sp.once...), sp.shapes...) {
		it, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown shape %s", id)
		}
		req, err := toWire(it.Table.Name, it.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, &shape{id: id, table: it.Table, query: it.Query, req: req})
	}
	return out, nil
}

// pass lists the indices into buildShapes' result that one pass sends.
func (sp spec) pass() []int {
	var p []int
	for i := range sp.once {
		p = append(p, i)
	}
	for r := 0; r < max(sp.repeat, 1); r++ {
		for i := range sp.shapes {
			p = append(p, len(sp.once)+i)
		}
	}
	return p
}

// computeOracles runs every shape once, unlimited, straight through
// the engine with the daemon's own options, on two goroutines while the
// daemons are idle.
func computeOracles(ctx context.Context, shapes []*shape) error {
	var next atomic.Int64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(shapes); i = int(next.Add(1)) - 1 {
				s := shapes[i]
				res, err := engine.RunContext(ctx, s.table, s.query, daemonEngineOptions())
				if err != nil {
					errs[w] = fmt.Errorf("oracle %s: %w", s.id, err)
					return
				}
				s.oracle = res
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// daemonEngineOptions are the engine options a default daemon runs a
// query with (server.execute), minus the plan override and limit.
func daemonEngineOptions() engine.Options {
	return engine.Options{
		Massaging: true,
		Model:     server.BuiltinModel(),
		Rho:       -1,
		MaxPlans:  server.DefaultMaxPlans,
		Workers:   1,
	}
}

var opNames = map[byteslice.Op]string{
	byteslice.EQ: "eq", byteslice.NEQ: "neq", byteslice.LT: "lt",
	byteslice.LE: "le", byteslice.GT: "gt", byteslice.GE: "ge",
}

var aggNames = map[engine.AggKind]string{engine.Count: "count", engine.Sum: "sum", engine.Avg: "avg"}

// toWire is the inverse of server.QueryRequest.ToEngineQuery.
func toWire(tableName string, q engine.Query) (server.QueryRequest, error) {
	req := server.QueryRequest{Table: tableName, OrderByAgg: q.OrderByAgg}
	switch q.Kind {
	case planner.OrderBy:
		req.Kind = "orderby"
	case planner.GroupBy:
		req.Kind = "groupby"
	case planner.PartitionBy:
		req.Kind = "partitionby"
	default:
		return req, fmt.Errorf("clause kind %v", q.Kind)
	}
	for _, sc := range q.SortCols {
		req.SortCols = append(req.SortCols, server.SortColReq{Name: sc.Name, Desc: sc.Desc})
	}
	for _, f := range q.Filters {
		fr := server.FilterReq{Col: f.Col, Between: f.Between, Lo: f.Lo, Hi: f.Hi}
		if !f.Between {
			fr.Op, fr.Const = opNames[f.Op], f.Const
		}
		req.Filters = append(req.Filters, fr)
	}
	if q.Agg != nil {
		req.Agg = &server.AggReq{Kind: aggNames[q.Agg.Kind], Col: q.Agg.Col}
	}
	if q.Window != nil {
		req.Window = &server.WindowReq{OrderCol: q.Window.OrderCol, Desc: q.Window.Desc}
	}
	if err := req.Validate(); err != nil {
		return req, err
	}
	back, err := req.ToEngineQuery()
	if err != nil {
		return req, err
	}
	back.ID = q.ID
	if !reflect.DeepEqual(back, q) {
		return req, fmt.Errorf("wire round trip changed the query: %+v vs %+v", back, q)
	}
	return req, nil
}

// matchesOracle reports whether a served result carries exactly the
// oracle's data, sliced to limit when one was set. Empty and absent
// fields compare equal, as they do on the wire.
func matchesOracle(res *server.QueryResult, o *engine.Result, limit *int) bool {
	gk, agg, ranks, oids := o.GroupKeys, o.Aggregates, o.Ranks, o.RowOids
	if limit != nil {
		k := *limit
		gk, agg, ranks, oids = gk[:min(k, len(gk))], agg[:min(k, len(agg))], ranks[:min(k, len(ranks))], oids[:min(k, len(oids))]
	}
	if res.Rows != o.Rows || len(res.GroupKeys) != len(gk) || !equal(res.Aggregates, agg) ||
		!equal(res.Ranks, ranks) || !equal(res.RowOids, oids) {
		return false
	}
	for i := range gk {
		if !equal(res.GroupKeys[i], gk[i]) {
			return false
		}
	}
	return true
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coldLimits is a seeded permutation of [1, maxColdLimit]: request i of
// a cold run takes limit coldLimits[i], so no two requests of the run
// share a plan key.
func coldLimits(rng *rand.Rand) []int {
	ks := rng.Perm(maxColdLimit)
	for i := range ks {
		ks[i]++
	}
	return ks
}
