package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/table"
)

// Daemon settings: mcsd's flag defaults, with -model builtin so plan
// choice never depends on a calibration run.
const (
	watchdogMult     = 200
	watchdogFloor    = 2 * time.Second
	breakerThreshold = 8
	breakerCooldown  = time.Second
	shardRetries     = 4
)

// daemon is one in-process mcsd serving HTTP on a loopback port.
type daemon struct {
	url      string
	hs       *http.Server
	served   chan error
	shutdown func(context.Context) error
	// srv is the single-node server behind the handler (nil for a
	// coordinator); coord is the coordinator (nil otherwise).
	srv   *server.Server
	coord *shard.Coordinator
}

// listen starts serving h on a fresh loopback port.
func listen(h http.Handler, shutdown func(context.Context) error) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, served: make(chan error, 1), shutdown: shutdown}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon the way mcsd does on SIGTERM and waits for its
// serve loop to exit.
func (d *daemon) stop(ctx context.Context) error {
	herr := d.hs.Shutdown(ctx)
	serr := d.shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve %s: %w", d.url, err)
	}
	return errors.Join(herr, serr)
}

func serverConfig(reg *server.Registry) server.Config {
	return server.Config{
		Registry:         reg,
		Model:            server.BuiltinModel(),
		Rho:              -1,
		MaxPlans:         server.DefaultMaxPlans,
		MaxConcurrent:    runtime.GOMAXPROCS(0),
		DefaultWorkers:   1,
		PlanCacheSize:    server.DefaultPlanCacheSize,
		WatchdogMult:     watchdogMult,
		WatchdogFloor:    watchdogFloor,
		BreakerThreshold: breakerThreshold,
		BreakerCooldown:  breakerCooldown,
	}
}

func startServer(tables []*table.Table) (*daemon, error) {
	reg := server.NewRegistry()
	for _, t := range tables {
		if err := reg.Register(t); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(serverConfig(reg))
	if err != nil {
		return nil, err
	}
	d, err := listen(srv.Handler(), srv.Shutdown)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	return d, nil
}

// topology is the set of daemons one workload talks to: a single
// server, or shard servers behind a coordinator (front).
type topology struct {
	front  *daemon
	shards []*daemon
	// shardTables[i] are the row ranges shard i serves.
	shardTables [][]*table.Table
}

// startTopology registers the tables and starts the daemons. With
// shards > 0 every shard serves its contiguous row range of each table
// (mcsd -shard-index i -shard-count N) and the coordinator holds the
// full tables (mcsd -shards ...).
func startTopology(tables []*table.Table, shards int) (*topology, error) {
	if shards == 0 {
		d, err := startServer(tables)
		if err != nil {
			return nil, err
		}
		return &topology{front: d}, nil
	}
	topo := &topology{}
	var urls []string
	for i := 0; i < shards; i++ {
		var sliced []*table.Table
		for _, t := range tables {
			st, err := shard.Slice(t, shard.Ranges(t.N, shards)[i])
			if err != nil {
				topo.stop()
				return nil, err
			}
			sliced = append(sliced, st)
		}
		d, err := startServer(sliced)
		if err != nil {
			topo.stop()
			return nil, err
		}
		topo.shards = append(topo.shards, d)
		topo.shardTables = append(topo.shardTables, sliced)
		urls = append(urls, d.url)
	}
	reg := server.NewRegistry()
	for _, t := range tables {
		if err := reg.Register(t); err != nil {
			topo.stop()
			return nil, err
		}
	}
	coord, err := shard.New(shard.Config{
		Registry:       reg,
		Shards:         urls,
		Model:          server.BuiltinModel(),
		Rho:            -1,
		MaxPlans:       server.DefaultMaxPlans,
		DefaultWorkers: 1,
		PlanCacheSize:  server.DefaultPlanCacheSize,
		WatchdogMult:   watchdogMult,
		WatchdogFloor:  watchdogFloor,
		Client:         client.Config{MaxRetries: shardRetries},
	})
	if err != nil {
		topo.stop()
		return nil, err
	}
	d, err := listen(coord.Handler(), coord.Shutdown)
	if err != nil {
		topo.stop()
		return nil, err
	}
	d.coord = coord
	topo.front = d
	return topo, nil
}

// stop drains the front first, then the shards it fans out to.
func (t *topology) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if t.front != nil {
		errs = append(errs, t.front.stop(ctx))
	}
	for _, d := range t.shards {
		errs = append(errs, d.stop(ctx))
	}
	return errors.Join(errs...)
}
