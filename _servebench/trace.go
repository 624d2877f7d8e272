package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/table"
)

// countingTransport counts HTTP requests, query submissions and
// response body bytes from outside the client.
type countingTransport struct {
	base      *http.Transport
	requests  atomic.Int64
	submits   atomic.Int64
	respBytes atomic.Int64
}

func newCountingTransport() *countingTransport {
	return &countingTransport{base: &http.Transport{}}
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if r.Method == http.MethodPost && r.URL.Path == "/query" {
		t.submits.Add(1)
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.respBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// Obs report arithmetic: deltas between two snapshots of the
// process-wide registry every in-process daemon shares.

func delta(after, before obs.Report) obs.Report {
	d := obs.Report{Enabled: after.Enabled}
	c0 := map[string]int64{}
	for _, c := range before.Counters {
		c0[c.Name] = c.Value
	}
	for _, c := range after.Counters {
		d.Counters = append(d.Counters, obs.CounterStat{Name: c.Name, Value: c.Value - c0[c.Name]})
	}
	t0 := map[string]obs.TimerStat{}
	for _, t := range before.Timers {
		t0[t.Name] = t
	}
	for _, t := range after.Timers {
		b := t0[t.Name]
		d.Timers = append(d.Timers, obs.TimerStat{Name: t.Name, Count: t.Count - b.Count, TotalNS: t.TotalNS - b.TotalNS})
	}
	return d
}

func sum(a, b obs.Report) obs.Report {
	s := obs.Report{Enabled: a.Enabled}
	c := map[string]int64{}
	for _, x := range append(a.Counters, b.Counters...) {
		c[x.Name] += x.Value
	}
	for n, v := range c {
		s.Counters = append(s.Counters, obs.CounterStat{Name: n, Value: v})
	}
	t := map[string]obs.TimerStat{}
	for _, x := range append(a.Timers, b.Timers...) {
		y := t[x.Name]
		t[x.Name] = obs.TimerStat{Name: x.Name, Count: y.Count + x.Count, TotalNS: y.TotalNS + x.TotalNS}
	}
	for _, v := range t {
		s.Timers = append(s.Timers, v)
	}
	return s
}

func counter(r obs.Report, name string) float64 {
	for _, c := range r.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

func timer(r obs.Report, name string) obs.TimerStat {
	for _, t := range r.Timers {
		if t.Name == name {
			return t
		}
	}
	return obs.TimerStat{Name: name}
}

// perEvent is total/count in milliseconds, 0 when nothing happened.
func perEventMS(t obs.TimerStat) float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.TotalNS) / float64(t.Count) / 1e6
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// planCacheStats sums hits and misses over every daemon's plan cache
// (the coordinator's pin cache included).
func (t *topology) planCacheStats() (hits, misses int64) {
	for _, d := range append([]*daemon{t.front}, t.shards...) {
		var h, m int64
		switch {
		case d.srv != nil:
			h, m, _ = d.srv.PlanCache().Stats()
		case d.coord != nil:
			h, m, _ = d.coord.PlanCache().Stats()
		}
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// metricsKiB is the size of the front daemon's /metrics body.
func (t *topology) metricsKiB(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.front.url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return 0, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, fmt.Errorf("metrics: %w", err)
	}
	return float64(n) / 1024, nil
}

type traceResult struct {
	sum     summary
	correct bool
	metrics map[string]metric
}

// traced re-runs the load with the transport counting and obs deltas
// taken around it, then replays one sequential pass of the mix layer by
// layer. untraced is the end-to-end run the overhead is measured against.
func (b *bench) traced(ctx context.Context, l *load, d time.Duration, untraced summary) (*traceResult, error) {
	ct := newCountingTransport()
	defer ct.base.CloseIdleConnections()
	cls, err := newClients(b.sp.clients, b.topo.front.url, &http.Client{Transport: ct}, b.seed)
	if err != nil {
		return nil, err
	}
	l.shapes, l.clients, l.tag = b.shapes, cls, "traced"
	h0, m0 := b.topo.planCacheStats()
	before := obs.Snapshot()
	samples, elapsed, err := l.run(ctx, d)
	if err != nil {
		return nil, err
	}
	loadObs := delta(obs.Snapshot(), before)
	h1, m1 := b.topo.planCacheStats()
	s := summarize(samples, b.shapes, elapsed)
	b.report("traced", s)
	metricsKiB, err := b.topo.metricsKiB(ctx)
	if err != nil {
		return nil, err
	}

	served := make([]bool, len(b.shapes))
	for _, x := range samples {
		served[x.shape] = served[x.shape] || x.kind == ""
	}
	rp, err := b.replay(ctx, l, served)
	if err != nil {
		return nil, err
	}

	q := float64(s.attempted)
	search := sum(b.warmup, loadObs)
	m := map[string]metric{
		"client.decode_ms":               {rp.mean(func(r replayed) float64 { return ms(r.clientDecode) }), "ms"},
		"client.http_requests_per_query": {ratio(float64(ct.requests.Load()), q), "count"},
		"client.response_kib_per_query":  {ratio(float64(ct.respBytes.Load())/1024, q), "KiB"},
		"client.retries_per_query":       {ratio(float64(ct.submits.Load())-q, q), "count"},

		"server.decode_us":                {rp.mean(func(r replayed) float64 { return float64(r.serverDecode) / 1e3 }), "us"},
		"server.queue_wait_ms":            {perEventMS(timer(loadObs, "server.queue_wait")), "ms"},
		"server.exec_ms":                  {perEventMS(timer(loadObs, "server.exec")), "ms"},
		"server.encode_ms":                {rp.mean(func(r replayed) float64 { return ms(r.serverEncode) }), "ms"},
		"server.plancache_hit_ratio":      {ratio(float64(h1-h0), float64(h1-h0+m1-m0)), "frac"},
		"server.watchdog_kills":           {counter(loadObs, "server.watchdog_kills"), "count"},
		"server.metrics_kib":              {metricsKiB, "KiB"},
		"planner.search_ms":               {perEventMS(timer(search, "planner.roga_search")), "ms"},
		"planner.plans_costed_per_search": {ratio(counter(search, "planner.plans_costed"), counter(search, "planner.searches")), "count"},

		"engine.filter_scan_ms": {rp.mean(func(r replayed) float64 { return ms(r.timing.FilterScan) }), "ms"},
		"engine.materialize_ms": {rp.mean(func(r replayed) float64 { return ms(r.timing.Materialize) }), "ms"},
		"engine.aggregate_ms":   {rp.mean(func(r replayed) float64 { return ms(r.timing.Aggregate) }), "ms"},
		"engine.post_sort_ms":   {rp.mean(func(r replayed) float64 { return ms(r.timing.PostSort) }), "ms"},

		"mcsort.massage_ms":       {rp.mean(func(r replayed) float64 { return ms(r.timing.MCS.Massage) }), "ms"},
		"mcsort.sort_ms":          {rp.mean(func(r replayed) float64 { return ms(r.timing.MCS.Sort) }), "ms"},
		"mcsort.lookup_ms":        {rp.mean(func(r replayed) float64 { return ms(r.timing.MCS.Lookup) }), "ms"},
		"mcsort.scan_ms":          {rp.mean(func(r replayed) float64 { return ms(r.timing.MCS.Scan) }), "ms"},
		"mcsort.rounds_per_query": {rp.mean(func(r replayed) float64 { return float64(r.rounds) }), "count"},

		"mergesort.phase1_ms":          {ratio(ms(time.Duration(timer(loadObs, "mergesort.phase1_inregister").TotalNS)), q), "ms"},
		"mergesort.phase2_ms":          {ratio(ms(time.Duration(timer(loadObs, "mergesort.phase2_incache").TotalNS)), q), "ms"},
		"mergesort.phase3_ms":          {ratio(ms(time.Duration(timer(loadObs, "mergesort.phase3_multiway").TotalNS)), q), "ms"},
		"mergesort.topk_survivor_frac": {ratio(rp.topkSurvivors, rp.topkRows), "frac"},

		"costmodel.pred_over_meas": {rp.predOverMeas(), "ratio"},

		"shard.fanout_ms":       {rp.mean(func(r replayed) float64 { return ms(r.fanout) }), "ms"},
		"shard.straggler_ratio": {rp.mean(func(r replayed) float64 { return r.straggler }), "ratio"},
		"shard.merge_ms":        {rp.mean(func(r replayed) float64 { return ms(r.merge) }), "ms"},
		"shard.subresult_kib":   {rp.mean(func(r replayed) float64 { return r.subKiB }), "KiB"},

		"trace.unattributed_frac": {rp.unattributed(), "frac"},
		"trace.overhead_frac":     {1 - ratio(s.qps(), untraced.qps()), "frac"},
	}
	return &traceResult{sum: s, correct: s.mismatches() == 0 && rp.mismatches == 0, metrics: m}, nil
}

// replayed is one request of the replay pass, split into the calls the
// benchmark timed itself.
type replayed struct {
	serverDecode time.Duration // server.ParseQueryRequest
	timing       engine.Timing // engine.RunContext (summed over shards)
	rounds       int           // massage/sort rounds of the plan
	predicted    float64       // PredictedMCS, ns
	serverEncode time.Duration // json.Marshal of the QueryResult
	clientDecode time.Duration // json.Unmarshal of the same bytes
	latency      time.Duration // client.Query wall time; 0 if it failed
	// Sharded only.
	fanout    time.Duration // slowest shard's client.Query wall time
	straggler float64       // slowest shard over the median shard
	merge     time.Duration // coordinator exec_ns minus fanout
	subKiB    float64       // shard response bytes
}

type replay struct {
	reqs                    []replayed
	topkSurvivors, topkRows float64
	mismatches              int
}

func (rp *replay) mean(f func(replayed) float64) float64 {
	if len(rp.reqs) == 0 {
		return 0
	}
	t := 0.0
	for _, r := range rp.reqs {
		t += f(r)
	}
	return t / float64(len(rp.reqs))
}

// predOverMeas is the median of PredictedMCS / Timing.MCS.Total().
func (rp *replay) predOverMeas() float64 {
	var xs []float64
	for _, r := range rp.reqs {
		if meas := r.timing.MCS.Total(); r.predicted > 0 && meas > 0 {
			xs = append(xs, r.predicted/float64(meas))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// unattributed is the share of client-observed latency, over the
// requests that succeeded, that the timed layer calls do not cover.
func (rp *replay) unattributed() float64 {
	var spans, lat time.Duration
	for _, r := range rp.reqs {
		if r.latency == 0 {
			continue
		}
		lat += r.latency
		spans += r.serverDecode + r.serverEncode + r.clientDecode
		if r.fanout > 0 {
			spans += r.fanout + r.merge
		} else {
			spans += r.timing.Total()
		}
	}
	return 1 - ratio(float64(spans), float64(lat))
}

// replay sends one sequential pass of the mix. Every request whose
// shape was served in the traced load is timed end to end through a
// client; every request is then split into the calls each layer's
// public functions make: request decode, engine execution with the
// daemon's own options, and the result's JSON encode and decode.
func (b *bench) replay(ctx context.Context, l *load, served []bool) (*replay, error) {
	ct := newCountingTransport()
	defer ct.base.CloseIdleConnections()
	hc := &http.Client{Transport: ct}
	cls, err := newClients(1, b.topo.front.url, hc, b.seed)
	if err != nil {
		return nil, err
	}
	var shardCls []*client.Client
	for _, d := range b.topo.shards {
		c, err := newClients(1, d.url, hc, b.seed)
		if err != nil {
			return nil, err
		}
		shardCls = append(shardCls, c[0])
	}
	rp := &replay{}
	l.tag = "replay"
	for i, s := range b.shapes {
		req, err := l.request(0, i, i)
		if err != nil {
			return nil, err
		}
		var r replayed
		var res *server.QueryResult
		if served[i] {
			t0 := time.Now()
			if res, err = cls[0].Query(ctx, req); err == nil {
				r.latency = time.Since(t0)
				if !matchesOracle(res, s.oracle, req.Limit) {
					rp.mismatches++
				}
			}
		}

		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		parsed, err := server.ParseQueryRequest(body)
		r.serverDecode = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", s.id, err)
		}

		var qr *server.QueryResult
		if len(b.topo.shards) == 0 {
			qr, err = b.replayEngine(ctx, s, *parsed, &r, rp)
		} else if res != nil {
			qr = res
			err = b.replayShards(ctx, s, *parsed, res, shardCls, ct, &r)
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", s.id, err)
		}
		if qr != nil {
			t0 = time.Now()
			enc, err := json.Marshal(qr)
			r.serverEncode = time.Since(t0)
			if err != nil {
				return nil, err
			}
			var back server.QueryResult
			t0 = time.Now()
			err = json.Unmarshal(enc, &back)
			r.clientDecode = time.Since(t0)
			if err != nil {
				return nil, err
			}
			if !matchesOracle(&back, s.oracle, req.Limit) {
				rp.mismatches++
			}
		}
		rp.reqs = append(rp.reqs, r)
	}
	return rp, nil
}

// replayEngine runs the request through engine.RunContext with the
// options the daemon would use: the daemon's cached plan on a warmed
// workload, a real search on a cold one.
func (b *bench) replayEngine(ctx context.Context, s *shape, req server.QueryRequest, r *replayed, rp *replay) (*server.QueryResult, error) {
	q, err := req.ToEngineQuery()
	if err != nil {
		return nil, err
	}
	opts := daemonEngineOptions()
	opts.Limit = req.Limit
	if !b.sp.cold {
		widths, err := server.SortColWidths(s.table, q)
		if err != nil {
			return nil, err
		}
		key := server.PlanKey(s.table, q, widths, opts.Workers, opts.Rho, opts.MaxPlans, req.Limit, req.Offset)
		choice, ok := b.topo.front.srv.PlanCache().Get(key)
		if !ok {
			return nil, errors.New("no cached plan after warm-up")
		}
		opts.PlanOverride = &choice
	}
	before := obs.Snapshot()
	res, err := engine.RunContext(ctx, s.table, q, opts)
	if err != nil {
		return nil, err
	}
	d := delta(obs.Snapshot(), before)
	if counter(d, "mergesort.topk_sorts") > 0 {
		rp.topkSurvivors += counter(d, "mergesort.topk_survivors")
		rp.topkRows += float64(res.Rows)
	}
	r.timing, r.rounds, r.predicted = res.Timing, len(res.Plan.Rounds), res.PredictedMCS
	return &server.QueryResult{
		Table: req.Table, Rows: res.Rows, GroupKeys: res.GroupKeys, Aggregates: res.Aggregates,
		Ranks: res.Ranks, RowOids: res.RowOids, Workers: res.Workers, Plan: res.Plan.String(),
		ColOrder: res.ColOrder, PlanCacheHit: !b.sp.cold,
	}, nil
}

// replayShards sends the coordinator's pinned sub-query to every shard
// at once, then runs it through engine.RunContext on each shard's rows.
func (b *bench) replayShards(ctx context.Context, s *shape, req server.QueryRequest, coordRes *server.QueryResult, shardCls []*client.Client, ct *countingTransport, r *replayed) error {
	sub := subRequest(req, coordRes.ColOrder)
	walls := make([]time.Duration, len(shardCls))
	errs := make([]error, len(shardCls))
	bytes0 := ct.respBytes.Load()
	var wg sync.WaitGroup
	for i, c := range shardCls {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			t0 := time.Now()
			_, errs[i] = c.Query(ctx, sub)
			walls[i] = time.Since(t0)
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	r.subKiB = float64(ct.respBytes.Load()-bytes0) / 1024
	sorted := append([]time.Duration(nil), walls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	r.fanout = sorted[len(sorted)-1]
	r.straggler = ratio(float64(r.fanout), float64(sorted[len(sorted)/2]))
	r.merge = time.Duration(coordRes.ExecNS) - r.fanout

	q, err := sub.ToEngineQuery()
	if err != nil {
		return err
	}
	for _, tables := range b.topo.shardTables {
		opts := daemonEngineOptions()
		opts.FixedColOrder = sub.ColOrder
		res, err := engine.RunContext(ctx, tableNamed(tables, sub.Table), q, opts)
		if err != nil {
			return err
		}
		r.timing.FilterScan += res.Timing.FilterScan
		r.timing.Materialize += res.Timing.Materialize
		r.timing.MCS.Add(res.Timing.MCS)
		r.timing.Aggregate += res.Timing.Aggregate
		r.timing.PostSort += res.Timing.PostSort
		r.rounds = len(res.Plan.Rounds)
		r.predicted += res.PredictedMCS
	}
	return nil
}

// subRequest is the sub-query the coordinator sends every shard for
// the mix's shapes (no limit, no avg): the request pinned to the
// coordinator's column order, with ORDER BY <aggregate> left to the
// coordinator's merge.
func subRequest(req server.QueryRequest, pin []int) server.QueryRequest {
	sub := req
	sub.ColOrder = append([]int(nil), pin...)
	sub.OrderByAgg = false
	return sub
}

func tableNamed(ts []*table.Table, name string) *table.Table {
	for _, t := range ts {
		if t.Name == name {
			return t
		}
	}
	return nil
}
