// The wire error taxonomy, once for every topology: one classifier
// (ErrorKind) and one {kind → HTTP status} table serve the node, the
// shard coordinator and the client's decoder (client.Error.Unwrap).
package server

import (
	"errors"
	"net/http"

	"repro/internal/pipeerr"
)

// ErrInvalidRequest is the class every request-validation failure
// wraps — malformed bodies, unknown tables, unknown columns (HTTP 400,
// kind "invalid", not retryable).
var ErrInvalidRequest = errors.New("server: invalid request")

// errNoJob is wrapped by lookups of unknown (or already delivered) job
// ids.
var errNoJob = errors.New("server: no such job")

// errNotFinished is wrapped when a result is fetched before the job
// reached a terminal state.
var errNotFinished = errors.New("server: job not finished")

// kinds maps every kind either topology emits to its HTTP status and,
// for the kinds with an in-process sentinel, the error client.Error
// unwraps to. The retryable classes each get a distinct, conventional
// status — 429 for queue congestion, 503 (with Retry-After) for a
// budget refusal or an unreachable shard, 504 for a watchdog kill or
// an expired deadline, 500 for a contained pipeline fault — so a
// client needs no message parsing to pick its backoff policy.
var kinds = map[string]struct {
	status   int
	sentinel error
}{
	"invalid":           {http.StatusBadRequest, nil},
	"not_found":         {http.StatusNotFound, nil},
	"not_finished":      {http.StatusConflict, nil},
	"queue_timeout":     {http.StatusTooManyRequests, pipeerr.ErrQueueTimeout},
	"budget":            {http.StatusServiceUnavailable, pipeerr.ErrBudgetExceeded},
	"shutdown":          {http.StatusServiceUnavailable, nil},
	"shard_unavailable": {http.StatusServiceUnavailable, nil},
	"shard_invalid":     {http.StatusBadGateway, nil},
	"watchdog":          {http.StatusGatewayTimeout, pipeerr.ErrWatchdog},
	"execution_timeout": {http.StatusGatewayTimeout, nil},
	"pipeline":          {http.StatusInternalServerError, nil},
	"internal":          {http.StatusInternalServerError, nil},
}

// KindError is a failure whose wire kind and retryability were decided
// where it arose: the coordinator classifies a shard failure at the
// fan-out, where it still knows which shard answered what.
type KindError struct {
	Kind      string
	Retryable bool
	Err       error
}

func (e *KindError) Error() string { return e.Err.Error() }
func (e *KindError) Unwrap() error { return e.Err }

// ErrorKind classifies a failure for the wire (JobStatus.Kind and
// error bodies). "internal" is the residual class: a query must never
// need it for a failure the taxonomy has a type for — the chaos
// batteries assert no storm-induced failure lands there.
func ErrorKind(err error) string {
	var ke *KindError
	var pe *pipeerr.PipelineError
	switch {
	case errors.As(err, &ke):
		return ke.Kind
	case errors.Is(err, pipeerr.ErrQueueTimeout):
		return "queue_timeout"
	case errors.Is(err, pipeerr.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, pipeerr.ErrWatchdog):
		return "watchdog"
	case errors.Is(err, ErrShuttingDown):
		return "shutdown"
	case pipeerr.IsCtxErr(err):
		return "execution_timeout"
	case errors.Is(err, ErrInvalidRequest):
		return "invalid"
	case errors.Is(err, errNoJob):
		return "not_found"
	case errors.Is(err, errNotFinished):
		return "not_finished"
	case errors.As(err, &pe):
		return "pipeline"
	default:
		return "internal"
	}
}

// StatusFor maps a failure to its HTTP status through the kind table;
// a kind outside the table is a server fault (500).
func StatusFor(err error) int {
	if k, ok := kinds[ErrorKind(err)]; ok {
		return k.status
	}
	return http.StatusInternalServerError
}

// KindSentinel is the in-process sentinel a wire kind stands for (nil
// when it has none), so errors.Is works across the HTTP boundary
// exactly as it does in process.
func KindSentinel(kind string) error { return kinds[kind].sentinel }

// Retryable reports whether re-submitting the identical query may
// succeed: the verdict a KindError carries, pipeerr.Retryable's for
// local failures. It is not a pure function of the kind, so the table
// does not hold it.
func Retryable(err error) bool {
	var ke *KindError
	if errors.As(err, &ke) {
		return ke.Retryable
	}
	return pipeerr.Retryable(err)
}
