// Retention bounds of the long-running daemon: a job is released once
// its outcome is delivered, and client-chosen query ids mint no metric
// names. External test package so the queries can go through
// internal/client, which imports server.
package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testutil"
)

func newSmallServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	tbl, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Register(tbl); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg, Model: server.BuiltinModel(), Rho: -1, MaxPlans: 1024, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	return srv, tbl.Name
}

// TestDeliveredJobsAreReleased runs 2,000 queries with distinct ids
// through the retrying client: every result is fetched once, so the
// job table must be empty afterwards and every goroutine gone.
func TestDeliveredJobsAreReleased(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	srv, name := newSmallServer(t)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	const clients, perClient = 4, 500
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.New(client.Config{BaseURL: hs.URL, PollInterval: 100 * time.Microsecond})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perClient; i++ {
				req := server.QueryRequest{
					Table: name, ID: fmt.Sprintf("q%d_%d", c, i), Kind: "orderby",
					SortCols: []server.SortColReq{{Name: "l_returnflag"}, {Name: "l_linestatus"}},
				}
				if _, err := cl.Query(context.Background(), req); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := srv.JobCount(); n != 0 {
		t.Errorf("job table holds %d jobs after every result was delivered, want 0", n)
	}
}

// TestQueryIDsMintNoMetrics runs 1,000 queries with distinct ids and
// requires the set of obs metric names to stay the same size: /metrics
// of a long-running daemon must not grow with its query count.
func TestQueryIDsMintNoMetrics(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	srv, name := newSmallServer(t)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	run := func(id string) {
		t.Helper()
		req := server.QueryRequest{
			Table: name, ID: id, Kind: "groupby",
			SortCols: []server.SortColReq{{Name: "l_returnflag"}, {Name: "l_linestatus"}},
			Agg:      &server.AggReq{Kind: "count"},
		}
		if _, err := srv.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	names := func() int {
		r := obs.Snapshot()
		return len(r.Counters) + len(r.Gauges) + len(r.Timers)
	}
	run("warmup")
	before := names()
	for i := 0; i < 1000; i++ {
		run(fmt.Sprintf("id%d", i))
	}
	if after := names(); after != before {
		t.Errorf("metric names grew from %d to %d over 1000 distinct query ids", before, after)
	}
}
