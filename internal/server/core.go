// The serving core both topologies share: the job layer and the HTTP
// mux. A node (Server: ROGA over a local table) and the shard
// coordinator (a pinned ROGA order, fan-out and merge) differ only in
// how one query executes, so each supplies just that step as an Exec;
// the Core owns everything around it — the job table and ids, the
// drain, the panic-recovering run boundary, JobID stamping, the
// per-query watchdog with its typed cause, and the wire surface:
//
//	POST /query            submit a query; returns {"job_id": "..."}
//	GET  /jobs/{id}        poll a job's status
//	GET  /jobs/{id}/result fetch a finished job's outcome, once: the
//	                       job is released, a second fetch is 404
//	GET  /tables           list registered tables
//	GET  /metrics          obs snapshot as JSON
//	GET  /healthz          liveness + drain state
//	GET  /livez            pure liveness
//	GET  /readyz           readiness (the node adds admission and
//	                       breaker state)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeerr"
)

// Exec executes one query to completion under ctx. It calls Running
// once the query is past any queue, so the job reports running and
// the watchdog starts.
type Exec func(ctx context.Context, req QueryRequest) (*QueryResult, error)

// Core is the job and HTTP layer over one Exec.
type Core struct {
	reg     *Registry
	exec    Exec
	wdMult  float64
	wdFloor time.Duration

	obsQueries, obsErrors, obsPanics *obs.Counter

	// The node's hooks; nil on the coordinator.
	observe func(err error)                  // sees every execution's outcome (the panic breaker)
	readyFn func(body map[string]any) string // adds readiness detail, returns why degraded ("" = ready)
	drainFn func()                           // runs once new submissions are refused

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup // running jobs

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	closed bool
}

// NewCore returns a core serving reg's tables through exec. A positive
// watchdogMult arms a per-query watchdog (watchdogFloor, default 2s,
// until the plan is known; floor + mult × predicted T_mcs after). The
// run boundary counts on <metrics>.queries, <metrics>.query_errors and
// <metrics>.contained_panics.
func NewCore(reg *Registry, exec Exec, watchdogMult float64, watchdogFloor time.Duration, metrics string) *Core {
	if watchdogMult > 0 && watchdogFloor <= 0 {
		watchdogFloor = 2 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Core{
		reg:        reg,
		exec:       exec,
		wdMult:     watchdogMult,
		wdFloor:    watchdogFloor,
		obsQueries: obs.NewCounter(metrics + ".queries"),
		obsErrors:  obs.NewCounter(metrics + ".query_errors"),
		obsPanics:  obs.NewCounter(metrics + ".contained_panics"),
		baseCtx:    ctx,
		cancel:     cancel,
		jobs:       make(map[string]*job),
	}
}

// JobState is the lifecycle of one submitted query.
type JobState string

const (
	// JobQueued: accepted, not yet executing (possibly waiting for
	// admission).
	JobQueued JobState = "queued"
	// JobRunning: admitted and executing.
	JobRunning JobState = "running"
	// JobDone: finished successfully; the result is available.
	JobDone JobState = "done"
	// JobFailed: finished with an error.
	JobFailed JobState = "failed"
)

// job is one submitted query and its terminal state, guarded by
// Core.mu.
type job struct {
	id    string
	state JobState
	res   *QueryResult
	err   error
}

// JobStatus is the pollable view of a job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Error is the failure message (JobFailed only), with Kind its
	// machine-readable class (the kind table in kinds.go).
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
	// Retryable reports whether re-submitting the identical query may
	// succeed: true for queue timeouts, budget refusals, watchdog kills,
	// contained pipeline faults and unreachable shards; false for
	// validation failures and the caller's own cancellation.
	Retryable bool `json:"retryable,omitempty"`
}

// submit registers req as an asynchronous job and schedules it on the
// base context (plus the request's own timeout, if any). It returns
// the job id to poll.
func (c *Core) submit(req QueryRequest) (string, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrShuttingDown
	}
	c.nextID++
	j := &job{id: fmt.Sprintf("j%d", c.nextID), state: JobQueued}
	c.jobs[j.id] = j
	c.wg.Add(1)
	c.mu.Unlock()

	// Containment of last resort: c.run recovers execution panics
	// itself, so reaching onPanic means the job bookkeeping panicked.
	// Settle the job so pollers see a failure instead of a job that
	// never finishes.
	pipeerr.Spawn(pipeerr.StageServe, func(pe *pipeerr.PipelineError) {
		c.settle(j, nil, pe)
	}, func() {
		defer c.wg.Done()
		ctx := c.baseCtx
		if req.TimeoutMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		res, err := c.run(ctx, j, req)
		c.settle(j, res, err)
	})
	return j.id, nil
}

// settle records a job's terminal outcome; the first one wins.
func (c *Core) settle(j *job, res *QueryResult, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case j.state == JobDone || j.state == JobFailed:
	case err != nil:
		j.state, j.err = JobFailed, err
	default:
		j.state, j.res = JobDone, res
	}
}

// status returns the job's current state.
func (c *Core) status(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return JobStatus{}, fmt.Errorf("%w: %q", errNoJob, id)
	}
	st := JobStatus{ID: j.id, State: j.state}
	if j.err != nil {
		st.Error = j.err.Error()
		st.Kind = ErrorKind(j.err)
		st.Retryable = Retryable(j.err)
	}
	return st, nil
}

// result delivers a finished job's outcome — its result or its failure
// — and releases the job: the table holds a job only until its outcome
// is delivered.
func (c *Core) result(id string) (*QueryResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %q", errNoJob, id)
	}
	if j.state != JobDone && j.state != JobFailed {
		return nil, fmt.Errorf("%w: job %s is %s", errNotFinished, id, j.state)
	}
	delete(c.jobs, id)
	return j.res, j.err
}

// Run executes req synchronously on the caller's context, through the
// same run boundary a submitted job takes.
func (c *Core) Run(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrShuttingDown
	}
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()
	return c.run(ctx, nil, req)
}

// Shutdown drains: new submissions are refused (and the node's queued
// waiters fail with ErrShuttingDown), running queries get until ctx
// ends to finish, then the base context is cancelled so stragglers
// unwind through cooperative cancellation. It returns nil when the
// drain completed cleanly and ctx.Err() when stragglers had to be
// cancelled (they still complete before Shutdown returns — no
// goroutine outlives it).
func (c *Core) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	if c.drainFn != nil {
		c.drainFn()
	}

	done := make(chan struct{})
	pipeerr.Spawn(pipeerr.StageServe, nil, func() {
		defer close(done)
		c.wg.Wait()
	})
	select {
	case <-done:
		c.cancel()
		return nil
	case <-ctx.Done():
		c.cancel()
		<-done
		return ctx.Err()
	}
}

// runState is what an execution's context carries for Running.
type runState struct {
	core   *Core
	job    *job                    // nil for Run
	cancel context.CancelCauseFunc // nil when the watchdog is off
}

type runKey struct{}

// run is the one execution path and the serving layer's containment
// boundary: the pipeline's sequential paths (and the coordinator's
// merge) execute on this goroutine, where no worker Group can recover
// a panic — every such fire point runs with no live workers
// (docs/robustness.md), so recovering here leaks nothing and turns a
// would-be process crash into a typed, retryable failure.
func (c *Core) run(ctx context.Context, j *job, req QueryRequest) (res *QueryResult, err error) {
	c.obsQueries.Inc()
	rs := &runState{core: c, job: j}
	if c.wdMult > 0 {
		// CancelCause keeps a watchdog kill distinguishable from the
		// client's own cancellation.
		ctx, rs.cancel = context.WithCancelCause(ctx)
		defer rs.cancel(nil)
	}
	ctx = context.WithValue(ctx, runKey{}, rs)
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &pipeerr.PipelineError{Stage: pipeerr.StageServe, Round: -1, Worker: -1, Err: pipeerr.AsError(v)}
			c.obsPanics.Inc()
		}
		if c.observe != nil {
			c.observe(err)
		}
		if err != nil {
			c.obsErrors.Inc()
		}
	}()
	res, err = c.exec(ctx, req)
	if err != nil {
		// A watchdog kill unwinds as a plain context cancellation;
		// surface the typed cause instead.
		if cause := context.Cause(ctx); pipeerr.IsCtxErr(err) && errors.Is(cause, pipeerr.ErrWatchdog) {
			err = cause
		}
		return nil, pipeerr.NoteCancel(err)
	}
	if j != nil {
		res.JobID = j.id
	}
	return res, nil
}

// Running marks the query executing under ctx as running — past any
// admission queue — and arms its watchdog with the floor budget. The
// returned func (nil when the watchdog is off) raises the budget to
// floor + mult × predictedNS once the plan, and with it the cost
// model's T_mcs estimate, is fixed; engine.Options.OnPlanChosen has
// its signature.
func Running(ctx context.Context) func(predictedNS float64) {
	rs, _ := ctx.Value(runKey{}).(*runState)
	if rs == nil {
		return nil
	}
	c := rs.core
	if rs.job != nil {
		c.mu.Lock()
		rs.job.state = JobRunning
		c.mu.Unlock()
	}
	if rs.cancel == nil {
		return nil
	}
	wd := startWatchdog(ctx, rs.cancel, c.wdFloor)
	return func(predictedNS float64) {
		if predictedNS > 0 {
			wd.extend(c.wdFloor + time.Duration(predictedNS*c.wdMult))
		}
	}
}

// Handler returns the HTTP mux.
func (c *Core) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", c.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", c.handleResult)
	mux.HandleFunc("GET /tables", c.handleTables)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /livez", c.handleLivez)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	return mux
}

// maxRequestBytes bounds a request body read; a query description has
// no business being larger.
const maxRequestBytes = 1 << 20

func (c *Core) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxRequestBytes)); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalidRequest, err))
		return
	}
	req, err := ParseQueryRequest(buf.Bytes())
	if err != nil {
		writeError(w, err)
		return
	}
	id, err := c.submit(*req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"job_id": id})
}

func (c *Core) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := c.status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Core) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := c.result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (c *Core) handleTables(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"tables": c.reg.Names()})
}

func (c *Core) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteJSON(w); err != nil {
		// Headers are gone; nothing more to do than drop the conn.
		return
	}
}

func (c *Core) draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Core) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if c.draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleLivez is pure liveness: the process is up and serving HTTP.
// It stays 200 through drains and degradation — restarts are for dead
// processes, and a draining server is finishing real work.
func (c *Core) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// handleReadyz reports whether this server should receive new traffic:
// not while draining, nor while the node reports a degraded state (its
// contained-panic breaker open, its admission queue saturated).
func (c *Core) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{}
	reason := ""
	if c.readyFn != nil {
		reason = c.readyFn(body)
	}
	switch {
	case c.draining():
		body["status"] = "draining"
	case reason != "":
		body["status"], body["reason"] = "degraded", reason
	default:
		body["status"] = "ready"
		writeJSON(w, http.StatusOK, body)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the peer hung up; nothing to report to
}

// writeError emits the error body with its machine-readable class and
// retryability under the kind table's status, plus a Retry-After hint
// on the load-induced statuses (the admission queue, the byte budget
// and a restarting shard clear soon, so "soon" is honest).
func writeError(w http.ResponseWriter, err error) {
	status := StatusFor(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{
		"error":     err.Error(),
		"kind":      ErrorKind(err),
		"retryable": Retryable(err),
	})
}
