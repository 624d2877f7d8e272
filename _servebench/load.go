package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// sample is one request of a timed run, as the client saw it.
type sample struct {
	shape int           // index into the workload's shapes
	lat   time.Duration // client.Query wall time, retries included
	kind  string        // "" on success, else the failure kind
}

// load is one closed-loop run: every client sends its next request
// only after the previous one returned.
type load struct {
	shapes []*shape
	// cold sends every request with a fresh limit. Otherwise the
	// daemons are warmed, and a request that missed the plan cache is a
	// failure.
	cold    bool
	clients []*client.Client
	seed    int64
	// pass is the shapes one pass sends, repeats included.
	pass []int
	// limits feeds cold requests their fresh limits; used counts the
	// ones taken.
	limits []int
	used   int
	// tag prefixes request ids so ids stay distinct across runs.
	tag string
}

func newLoad(shapes []*shape, sp spec, clients []*client.Client, seed int64) *load {
	l := &load{shapes: shapes, cold: sp.cold, clients: clients, tag: "run", seed: seed, pass: sp.pass()}
	if sp.cold {
		l.limits = coldLimits(rand.New(rand.NewSource(seed)))
	}
	return l
}

// Stopping rule: a run sends whole passes and stops at the first pass
// boundary after the deadline at which the median latency on the
// report line is supported. It sends nothing more once it has run maxOverrun past the
// deadline, even mid-pass. The cap keeps a traced run, which makes two
// loads, inside three minutes, and cold runs inside their maxColdLimit
// requests.
const (
	minSuccesses = 2 * minBeyond // the median needs ten samples beyond it
	maxOverrun   = 40 * time.Second
)

// run lets the clients take requests in turn from one sequence of
// passes, each pass the whole mix in an order shuffled from the seed
// (the same sequence on every run of l), until d has elapsed. The pass
// under way at the deadline is finished, so every shape is sent equally
// often whatever the clock did. It returns every request made and the
// wall time.
func (l *load) run(ctx context.Context, d time.Duration) ([]sample, time.Duration, error) {
	rng := rand.New(rand.NewSource(l.seed + 1))
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu         sync.Mutex
		queue      []server.QueryRequest
		queueShape []int
		passes     int
		succeeded  int
		all        []sample
		runErr     error
	)
	// next hands out the next request of the sequence; false ends the run.
	next := func() (server.QueryRequest, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if runErr != nil || now.After(deadline.Add(maxOverrun)) {
			return server.QueryRequest{}, 0, false
		}
		if len(queue) == 0 {
			if passes > 0 && now.After(deadline) && succeeded >= minSuccesses {
				return server.QueryRequest{}, 0, false
			}
			for _, p := range rng.Perm(len(l.pass)) {
				si := l.pass[p]
				req, err := l.request(passes, p, si)
				if err != nil {
					runErr = err
					return server.QueryRequest{}, 0, false
				}
				queue, queueShape = append(queue, req), append(queueShape, si)
			}
			passes++
		}
		req, si := queue[0], queueShape[0]
		queue, queueShape = queue[1:], queueShape[1:]
		return req, si, true
	}
	var wg sync.WaitGroup
	for c := range l.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				req, si, ok := next()
				if !ok {
					return
				}
				s := l.one(ctx, c, req, si)
				mu.Lock()
				all = append(all, s)
				if s.kind == "" {
					succeeded++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return all, time.Since(start), runErr
}

// request builds the wire request for shape si at position p of the
// given pass: a distinct id, and on a cold run a limit no earlier
// request used.
func (l *load) request(pass, p, si int) (server.QueryRequest, error) {
	sh := l.shapes[si]
	req := sh.req
	req.ID = fmt.Sprintf("%s.%d.%d.%s", l.tag, pass, p, sh.id)
	if l.cold {
		if l.used == len(l.limits) {
			return req, fmt.Errorf("cold runs need more than %d distinct limits", len(l.limits))
		}
		k := l.limits[l.used]
		l.used++
		req.Limit = &k
	}
	return req, nil
}

// one sends a single request and checks its result against the oracle.
func (l *load) one(ctx context.Context, c int, req server.QueryRequest, si int) sample {
	sh := l.shapes[si]
	t0 := time.Now()
	res, err := l.clients[c].Query(ctx, req)
	s := sample{shape: si, lat: time.Since(t0)}
	switch {
	case err != nil:
		s.kind = failureKind(err)
	case !matchesOracle(res, sh.oracle, req.Limit):
		s.kind = kindMismatch
	case !l.cold && !res.PlanCacheHit:
		s.kind = kindPlanMiss
	}
	return s
}

// Failure kinds the benchmark assigns itself; every other kind is the
// daemon's wire kind (watchdog, shard_unavailable, ...).
const (
	kindMismatch  = "oracle_mismatch"
	kindPlanMiss  = "plan_cache_miss"
	kindTransport = "transport"
)

func failureKind(err error) string {
	var we *client.Error
	if errors.As(err, &we) && we.Kind != "" {
		return we.Kind
	}
	return kindTransport
}

// newClients builds n retrying clients with the client's defaults
// over one shared HTTP client.
func newClients(n int, url string, hc *http.Client, seed int64) ([]*client.Client, error) {
	var cls []*client.Client
	for c := 0; c < n; c++ {
		cl, err := client.New(client.Config{BaseURL: url, HTTPClient: hc, Seed: uint64(seed)<<4 | uint64(c+1)})
		if err != nil {
			return nil, err
		}
		cls = append(cls, cl)
	}
	return cls, nil
}
