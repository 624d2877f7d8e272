package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/pipeerr"
	"repro/internal/testutil"
)

// TestStatusMapping pins the full wire taxonomy in one table: every
// error class maps to its own HTTP status, machine-readable kind, and
// retryability verdict. Before PR 8 the handlers collapsed
// queue-timeout, budget-refusal, and contained-panic failures toward
// one bucket; a regression here would send clients the wrong backoff
// policy.
func TestStatusMapping(t *testing.T) {
	pipelineErr := &pipeerr.PipelineError{Stage: pipeerr.StageSort, Round: 1, Worker: 2, Err: errors.New("boom")}
	serveErr := &pipeerr.PipelineError{Stage: pipeerr.StageServe, Round: -1, Worker: -1, Err: errors.New("poison")}
	cases := []struct {
		name      string
		err       error
		status    int
		kind      string
		retryable bool
	}{
		{"invalid request", fmt.Errorf("%w: bad", ErrInvalidRequest), http.StatusBadRequest, "invalid", false},
		{"no such job", fmt.Errorf("%w: %q", errNoJob, "j9"), http.StatusNotFound, "not_found", false},
		{"not finished", fmt.Errorf("%w: job j1 is running", errNotFinished), http.StatusConflict, "not_finished", false},
		{"shutting down", ErrShuttingDown, http.StatusServiceUnavailable, "shutdown", false},
		{"queue timeout", pipeerr.QueueTimeout(context.DeadlineExceeded), http.StatusTooManyRequests, "queue_timeout", true},
		{"budget refusal", fmt.Errorf("server: %w", pipeerr.ErrBudgetExceeded), http.StatusServiceUnavailable, "budget", true},
		{"watchdog kill", pipeerr.Watchdog(3*time.Second, time.Second), http.StatusGatewayTimeout, "watchdog", true},
		{"client deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "execution_timeout", false},
		{"client cancel", context.Canceled, http.StatusGatewayTimeout, "execution_timeout", false},
		{"contained worker panic", pipelineErr, http.StatusInternalServerError, "pipeline", true},
		{"contained serve panic", serveErr, http.StatusInternalServerError, "pipeline", true},
		{"unclassified", errors.New("mystery"), http.StatusInternalServerError, "internal", false},
		// The coordinator's kinds: shard failures classified at the
		// fan-out, including the kinds a shard hands back (a shard's
		// invalid, shutdown or execution_timeout is the query's).
		{"shard unreachable", shardErr("shard_unavailable", true), http.StatusServiceUnavailable, "shard_unavailable", true},
		{"shard answered garbage", shardErr("shard_invalid", false), http.StatusBadGateway, "shard_invalid", false},
		{"shard: invalid", shardErr("invalid", false), http.StatusBadRequest, "invalid", false},
		{"shard: shutdown", shardErr("shutdown", false), http.StatusServiceUnavailable, "shutdown", false},
		{"shard: execution timeout", shardErr("execution_timeout", false), http.StatusGatewayTimeout, "execution_timeout", false},
		{"shard: budget", shardErr("budget", true), http.StatusServiceUnavailable, "budget", true},
		{"shard: contained panic wrapped by the fan-out group", &pipeerr.PipelineError{Stage: pipeerr.StageServe, Round: 0, Worker: 1, Err: shardErr("invalid", false)}, http.StatusBadRequest, "invalid", false},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.kind] = true
		t.Run(tc.name, func(t *testing.T) {
			if got := StatusFor(tc.err); got != tc.status {
				t.Errorf("StatusFor = %d, want %d", got, tc.status)
			}
			if got := kinds[tc.kind].status; got != tc.status {
				t.Errorf("kind table status for %q = %d, want %d", tc.kind, got, tc.status)
			}
			if got := ErrorKind(tc.err); got != tc.kind {
				t.Errorf("ErrorKind = %q, want %q", got, tc.kind)
			}
			if got := Retryable(tc.err); got != tc.retryable {
				t.Errorf("Retryable = %v, want %v", got, tc.retryable)
			}
			// The wire body carries the same status, kind and verdict.
			rec := httptest.NewRecorder()
			writeError(rec, tc.err)
			var body struct {
				Kind      string `json:"kind"`
				Retryable bool   `json:"retryable"`
			}
			if err := decodeBody(rec.Result(), &body); err != nil {
				t.Fatal(err)
			}
			if rec.Code != tc.status || body.Kind != tc.kind || body.Retryable != tc.retryable {
				t.Errorf("wire = %d %q retryable=%v, want %d %q %v", rec.Code, body.Kind, body.Retryable, tc.status, tc.kind, tc.retryable)
			}
			// A client.Error of this kind unwraps to KindSentinel; the
			// in-process failure must match that same sentinel.
			if s := KindSentinel(tc.kind); s != nil && !errors.Is(tc.err, s) {
				t.Errorf("%v does not match its kind's sentinel %v", tc.err, s)
			}
		})
	}
	for kind := range kinds {
		if !covered[kind] {
			t.Errorf("kind %q has no row", kind)
		}
	}
	for _, kind := range []string{"queue_timeout", "budget", "watchdog"} {
		if KindSentinel(kind) == nil {
			t.Errorf("kind %q lost its pipeerr sentinel", kind)
		}
	}
}

// shardErr is a shard failure as the coordinator's fan-out types it:
// the client.Error inside unwraps to its kind's sentinel, if any.
func shardErr(kind string, retryable bool) error {
	cause := KindSentinel(kind)
	if cause == nil {
		cause = errors.New(kind)
	}
	return &KindError{Kind: kind, Retryable: retryable, Err: fmt.Errorf("shard http://s1: %w", cause)}
}

// TestWriteErrorBody asserts the wire error body carries the kind and
// retryable fields, and that the load-induced statuses advertise
// Retry-After.
func TestWriteErrorBody(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, pipeerr.QueueTimeout(context.DeadlineExceeded))
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	var body struct {
		Error     string `json:"error"`
		Kind      string `json:"kind"`
		Retryable bool   `json:"retryable"`
	}
	if err := decodeBody(rec.Result(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "queue_timeout" || !body.Retryable || body.Error == "" {
		t.Errorf("body = %+v", body)
	}

	rec = httptest.NewRecorder()
	writeError(rec, fmt.Errorf("%w: nope", ErrInvalidRequest))
	if rec.Header().Get("Retry-After") != "" {
		t.Error("400 must not carry Retry-After")
	}
}

// TestStatusMappingOverHTTP drives the distinct statuses through the
// real handler stack: a budget refusal is 503 + Retry-After with the
// typed kind, an unknown job 404, an unfinished job 409, and the job
// status JSON carries the retryable flag.
func TestStatusMappingOverHTTP(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 4000)
	// MaxBytes 1: every query is refused up front with the typed
	// budget error.
	srv := newTestServer(t, Config{MaxBytes: 1}, tbl)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := QueryRequest{Table: tbl.Name, Kind: "orderby", SortCols: []SortColReq{{Name: "l_returnflag"}}, Workers: 2}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submit struct {
		JobID string `json:"job_id"`
	}
	if err := decodeBody(resp, &submit); err != nil {
		t.Fatal(err)
	}
	// Poll until the job fails, then check status fields and result
	// status code.
	deadline := time.Now().Add(10 * time.Second)
	var st JobStatus
	for {
		resp, err := http.Get(hs.URL + "/jobs/" + submit.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeBody(resp, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobFailed || st.State == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != JobFailed || st.Kind != "budget" || !st.Retryable {
		t.Fatalf("status = %+v, want failed/budget/retryable", st)
	}
	resp, err = http.Get(hs.URL + "/jobs/" + submit.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("budget-refused result = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("budget refusal must carry Retry-After")
	}

	resp, err = http.Get(hs.URL + "/jobs/nope/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", resp.StatusCode)
	}

	// An unknown table is the caller's mistake: the job fails with kind
	// "invalid" (not "internal") and the result maps to 400.
	req.Table = "no_such_table"
	body, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeBody(resp, &submit); err != nil {
		t.Fatal(err)
	}
	for {
		resp, err := http.Get(hs.URL + "/jobs/" + submit.JobID)
		if err != nil {
			t.Fatal(err)
		}
		// Reset: retryable=false is omitted on the wire (omitempty), so
		// a reused struct would keep the budget job's true.
		st = JobStatus{}
		if err := decodeBody(resp, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobFailed || st.State == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unknown-table job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != JobFailed || st.Kind != "invalid" || st.Retryable {
		t.Fatalf("unknown-table status = %+v, want failed/invalid/not-retryable", st)
	}
	resp, err = http.Get(hs.URL + "/jobs/" + submit.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-table result = %d, want 400", resp.StatusCode)
	}
}

// TestUnknownColumnsOverHTTP names an unknown column in each of the
// four slots a request has — sort, window order, filter, aggregate —
// and requires the caller's-mistake verdict every time: the job fails
// invalid and not retryable, its result is 400, and once that outcome
// is delivered the job is released (a second fetch is 404 not_found).
func TestUnknownColumnsOverHTTP(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tbl := testTPCH(t, 1000)
	srv := newTestServer(t, Config{}, tbl)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cols := []SortColReq{{Name: "l_returnflag"}}
	cases := []struct {
		slot string
		req  QueryRequest
	}{
		{"sort", QueryRequest{Kind: "orderby", SortCols: []SortColReq{{Name: "no_such_col"}}}},
		{"window order", QueryRequest{Kind: "partitionby", SortCols: cols, Window: &WindowReq{OrderCol: "no_such_col"}}},
		{"filter", QueryRequest{Kind: "orderby", SortCols: cols, Filters: []FilterReq{{Col: "no_such_col", Op: "eq", Const: 1}}}},
		{"agg", QueryRequest{Kind: "groupby", SortCols: cols, Agg: &AggReq{Kind: "sum", Col: "no_such_col"}}},
	}
	for _, tc := range cases {
		t.Run(tc.slot, func(t *testing.T) {
			tc.req.Table = tbl.Name
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var submit struct {
				JobID string `json:"job_id"`
			}
			if err := decodeBody(resp, &submit); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			var st JobStatus
			for st.State != JobFailed && st.State != JobDone {
				if time.Now().After(deadline) {
					t.Fatalf("job stuck in %s", st.State)
				}
				resp, err := http.Get(hs.URL + "/jobs/" + submit.JobID)
				if err != nil {
					t.Fatal(err)
				}
				st = JobStatus{}
				if err := decodeBody(resp, &st); err != nil {
					t.Fatal(err)
				}
			}
			if st.State != JobFailed || st.Kind != "invalid" || st.Retryable {
				t.Fatalf("status = %+v, want failed/invalid/not retryable", st)
			}
			for _, want := range []struct {
				status int
				kind   string
			}{{http.StatusBadRequest, "invalid"}, {http.StatusNotFound, "not_found"}} {
				resp, err := http.Get(hs.URL + "/jobs/" + submit.JobID + "/result")
				if err != nil {
					t.Fatal(err)
				}
				var eb struct {
					Kind string `json:"kind"`
				}
				if err := decodeBody(resp, &eb); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != want.status || eb.Kind != want.kind {
					t.Errorf("result fetch = %d %q, want %d %q", resp.StatusCode, eb.Kind, want.status, want.kind)
				}
			}
		})
	}
}
