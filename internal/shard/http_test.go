// The coordinator's wire surface: a client that speaks mcsd's protocol
// must get the single-node answer and the single-node error taxonomy
// from a coordinator without being able to tell the difference.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/testutil"
)

// TestCoordinatorHTTPRoundTrip drives submit → poll → result through
// the retrying client against a 3-shard topology and compares against
// the direct engine oracle.
func TestCoordinatorHTTPRoundTrip(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 3, Config{})
	hs := httptest.NewServer(coord.Handler())
	defer done()
	defer hs.Close()

	req := server.QueryRequest{
		Table:    "narrow99",
		Kind:     "groupby",
		SortCols: []server.SortColReq{{Name: "a"}, {Name: "b"}},
		Agg:      &server.AggReq{Kind: "avg", Col: "v"},
		Workers:  4,
	}
	want := runOracle(t, tables[1], req, 4)

	cl, err := client.New(client.Config{BaseURL: hs.URL, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonServer(t, res); !bytes.Equal(got, want) {
		t.Errorf("wire result diverges from the engine oracle\n got: %s\nwant: %s", got, want)
	}
}

// TestCoordinatorHTTPErrors covers the coordinator's error taxonomy on
// the wire: unknown jobs, jobs failed by validation-at-execution, the
// reserved col_order field, and malformed bodies.
func TestCoordinatorHTTPErrors(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tables := batteryTables(t)
	coord, done := newTopology(t, tables, 2, Config{})
	hs := httptest.NewServer(coord.Handler())
	defer done()
	defer hs.Close()

	get := func(path string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, body
	}
	post := func(payload string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/query", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, body
	}

	resp, body := get("/jobs/zz")
	if resp.StatusCode != http.StatusNotFound || body["kind"] != "not_found" {
		t.Errorf("unknown job: status %d kind %v, want 404/not_found", resp.StatusCode, body["kind"])
	}
	resp, body = get("/jobs/zz/result")
	if resp.StatusCode != http.StatusNotFound || body["kind"] != "not_found" {
		t.Errorf("unknown job result: status %d kind %v, want 404/not_found", resp.StatusCode, body["kind"])
	}

	resp, body = post("{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d (%v), want 400", resp.StatusCode, body)
	}

	// A col_order the single-node Validate already refuses (it reorders
	// an orderby) fails at submit.
	resp, body = post(`{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"},{"name":"b"}],"col_order":[1,0]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reordering col_order: status %d (%v), want 400", resp.StatusCode, body)
	}

	// Failures the coordinator only detects at execution time surface
	// through the job state with the single-node kind and no retry.
	wantKind := server.ErrorKind(server.ErrInvalidRequest)
	waitFailed := func(label, payload string) {
		t.Helper()
		resp, body := post(payload)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d (%v)", label, resp.StatusCode, body)
		}
		id := body["job_id"].(string)
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, st := get("/jobs/" + id)
			if st["state"] == string(server.JobFailed) {
				if st["kind"] != wantKind {
					t.Errorf("%s: kind %v, want %q", label, st["kind"], wantKind)
				}
				if st["retryable"] == true {
					t.Errorf("%s: marked retryable", label)
				}
				// The outcome is delivered once, under the kind's status;
				// the job is released after it.
				if resp, body := get("/jobs/" + id + "/result"); resp.StatusCode != http.StatusBadRequest || body["kind"] != wantKind {
					t.Errorf("%s: result %d %v, want 400 %q", label, resp.StatusCode, body["kind"], wantKind)
				}
				if resp, body := get("/jobs/" + id + "/result"); resp.StatusCode != http.StatusNotFound || body["kind"] != "not_found" {
					t.Errorf("%s: second result fetch %d %v, want 404 not_found", label, resp.StatusCode, body["kind"])
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: job %s never failed: %v", label, id, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFailed("unknown table",
		`{"table":"nope","kind":"orderby","sort_cols":[{"name":"a"}]}`)
	// Even a col_order Validate allows (the identity) is reserved for
	// the coordinator's own sub-queries.
	waitFailed("reserved col_order",
		`{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"},{"name":"b"}],"col_order":[0,1]}`)
	// An unknown column is the caller's mistake in every slot a request
	// names one: sort, window order, filter, aggregate.
	waitFailed("unknown sort column",
		`{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"zz"}]}`)
	waitFailed("unknown window order column",
		`{"table":"narrow0","kind":"partitionby","sort_cols":[{"name":"a"}],"window":{"order_col":"zz"}}`)
	waitFailed("unknown filter column",
		`{"table":"narrow0","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"zz","op":"eq","const":1}]}`)
	waitFailed("unknown agg column",
		`{"table":"narrow0","kind":"groupby","sort_cols":[{"name":"a"}],"agg":{"kind":"sum","col":"zz"}}`)
}
