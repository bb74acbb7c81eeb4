// Package apierr defines the typed client-side errors shared by the
// norns and nornsctl API libraries. Every failed daemon response maps
// to an *Error carrying the protocol status code, and errors.Is
// matches it against the exported sentinels — so callers branch on
// errors.Is(err, apierr.ErrAgain) to retry under backpressure instead
// of string-matching "NORNS_EAGAIN".
package apierr

import (
	"errors"
	"fmt"

	"github.com/ngioproject/norns-go/internal/proto"
)

// Sentinels, one per protocol status code. They carry no context of
// their own; use them only as errors.Is targets.
var (
	// ErrBadRequest reports a malformed or illegal request (including
	// illegal task state transitions, e.g. cancelling a finished task).
	ErrBadRequest = errors.New("bad request")
	// ErrNoSuchTask reports an unknown task, dataspace, job, or process
	// — the NORNS_ENOTFOUND space.
	ErrNoSuchTask = errors.New("not found")
	// ErrExists reports a duplicate registration.
	ErrExists = errors.New("already exists")
	// ErrPermission reports an authorization failure.
	ErrPermission = errors.New("permission denied")
	// ErrTaskError reports a task that reached the Failed state.
	ErrTaskError = errors.New("task failed")
	// ErrTimeout reports a daemon-side wait timeout.
	ErrTimeout = errors.New("timed out")
	// ErrInternal reports a daemon-side internal error.
	ErrInternal = errors.New("internal error")
	// ErrAgain is the backpressure signal: the daemon's pipeline is at
	// its in-flight limit or a shard queue is full. Retry after backing
	// off; for batch submissions it applies per entry.
	ErrAgain = errors.New("resource temporarily unavailable")
	// ErrUnavailable reports a daemon that is temporarily refusing work
	// daemon-wide: degraded mode after a journal write failure, or
	// draining for shutdown. Retry after backing off, ideally against
	// another daemon.
	ErrUnavailable = errors.New("service unavailable")
)

// Error is a failed daemon response: the protocol status code plus the
// daemon's message, prefixed with the originating API for display.
type Error struct {
	// API is the client library name ("norns" or "nornsctl").
	API string
	// Code is the protocol status code of the response.
	Code proto.StatusCode
	// Msg is the daemon's error text.
	Msg string
}

// New builds an *Error from a failed response.
func New(api string, resp *proto.Response) *Error {
	return &Error{API: api, Code: resp.Status, Msg: resp.Error}
}

// Error renders like the historical string form, e.g.
// "norns: NORNS_EAGAIN: 128 tasks in flight", or "norns: NORNS_ETIMEOUT"
// when the daemon sent no message.
func (e *Error) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("%s: %s", e.API, e.Code)
	}
	return fmt.Sprintf("%s: %s: %s", e.API, e.Code, e.Msg)
}

// sentinel maps a status code to its errors.Is target.
func sentinel(code proto.StatusCode) error {
	switch code {
	case proto.EBadRequest:
		return ErrBadRequest
	case proto.ENotFound:
		return ErrNoSuchTask
	case proto.EExists:
		return ErrExists
	case proto.EPermission:
		return ErrPermission
	case proto.ETaskError:
		return ErrTaskError
	case proto.ETimeout:
		return ErrTimeout
	case proto.EAgain:
		return ErrAgain
	case proto.EUnavailable:
		return ErrUnavailable
	case proto.EInternal:
		return ErrInternal
	default:
		return nil
	}
}

// Retryable reports whether a status code names a transient condition
// that a client (or the daemon's own task-retry machinery) should retry
// after backing off: backpressure (EAgain), daemon-side wait timeouts
// (ETimeout), and daemon-wide unavailability (EUnavailable). Permanent
// failures — bad requests, missing tasks, task errors — are not.
func Retryable(code proto.StatusCode) bool {
	switch code {
	case proto.EAgain, proto.ETimeout, proto.EUnavailable:
		return true
	default:
		return false
	}
}

// IsRetryable reports whether err is (or wraps) a retryable daemon
// response: an *Error whose code Retryable accepts, or one of the
// retryable sentinels themselves.
func IsRetryable(err error) bool {
	var e *Error
	if errors.As(err, &e) {
		return Retryable(e.Code)
	}
	return errors.Is(err, ErrAgain) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrUnavailable)
}

// Is matches the sentinel for the error's status code, so
// errors.Is(err, apierr.ErrAgain) holds for any EAgain response.
func (e *Error) Is(target error) bool {
	s := sentinel(e.Code)
	return s != nil && target == s
}

// HTTPStatus is the documented protocol-to-HTTP status table served by
// the gateway's JSON error envelope (see DESIGN.md). Every typed error
// class has exactly one HTTP status:
//
//	Success      -> 200 OK
//	EBadRequest  -> 400 Bad Request
//	ENotFound    -> 404 Not Found
//	EExists      -> 409 Conflict
//	EPermission  -> 403 Forbidden
//	ETaskError   -> 422 Unprocessable Entity (the task ran and failed)
//	ETimeout     -> 504 Gateway Timeout (the daemon-side wait expired)
//	EAgain       -> 429 Too Many Requests (backpressure; retry later)
//	EUnavailable -> 503 Service Unavailable (degraded or draining)
//	EInternal    -> 500 Internal Server Error
//
// Unknown codes map to 500: an unmapped failure must read as a server
// bug, never as client success.
func HTTPStatus(code proto.StatusCode) int {
	switch code {
	case proto.Success:
		return 200
	case proto.EBadRequest:
		return 400
	case proto.ENotFound:
		return 404
	case proto.EExists:
		return 409
	case proto.EPermission:
		return 403
	case proto.ETaskError:
		return 422
	case proto.ETimeout:
		return 504
	case proto.EAgain:
		return 429
	case proto.EUnavailable:
		return 503
	default:
		return 500
	}
}

// FromHTTPStatus inverts HTTPStatus for the gateway's HTTP clients, so
// a decoded error envelope still satisfies errors.Is against the
// sentinels even when the body carried no protocol code.
func FromHTTPStatus(status int) proto.StatusCode {
	switch status {
	case 200:
		return proto.Success
	case 400:
		return proto.EBadRequest
	case 404:
		return proto.ENotFound
	case 409:
		return proto.EExists
	case 401, 403:
		return proto.EPermission
	case 422:
		return proto.ETaskError
	case 504:
		return proto.ETimeout
	case 429:
		return proto.EAgain
	case 503:
		return proto.EUnavailable
	default:
		return proto.EInternal
	}
}
