package controlet

import (
	"errors"
	"fmt"

	"bespokv/internal/wire"
)

// errShed marks failures that must surface to the client as
// StatusOverloaded: the op was rejected under load (shed, replication
// backlog, or a spent deadline budget) without being acknowledged, and
// retrying after backoff is the right response. Everything else on the
// write paths keeps its existing StatusErr/StatusUnavailable mapping.
var errShed = errors.New("overloaded")

// errDeadlineSpent is the errShed flavor for a request whose propagated
// deadline budget ran out at this hop — executing it would be wasted work
// the client has already given up on.
var errDeadlineSpent = fmt.Errorf("%w: deadline expired", errShed)

// dispatchAdmit is dispatch behind the hop prologue
// (overload.Admission.Admit).
func (s *Server) dispatchAdmit(req *wire.Request, resp *wire.Response) {
	if release, ok := s.admit.Admit(req, resp); ok {
		defer release()
		s.dispatch(req, resp)
	}
}

// downstream marks a failure of something this node depends on to finish
// a write — a peer replica, the shared log. The client sees the
// retryable StatusUnavailable: the coordinator repairs the replica set (or
// the service fails over) and the retry lands on the new topology.
type downstream struct {
	what string
	err  error
}

func (d downstream) Error() string { return d.what + ": " + d.err.Error() }
func (d downstream) Unwrap() error { return d.err }

// errBacklog is the MS+EC shed: a slave's propagation queue stayed full
// past the enqueue grace.
var errBacklog = fmt.Errorf("%w: replication backlog", errShed)

// refusal is an op this node must not serve right now, and the status that
// tells the client so.
type refusal struct {
	status wire.Status
	why    string
}

func (r refusal) Error() string { return r.why }

// The AA+SC refusals (aasc.go): the slot is another replica's under this
// node's map; the slot is this node's but its previous owner has not
// handed it over yet; this node has lost coordinator contact.
var (
	errNotOwner = refusal{wire.StatusWrongEpoch, "controlet: not the slot's owner"}
	errUnarmed  = refusal{wire.StatusUnavailable, "controlet: slot handoff in progress"}
	errFenced   = refusal{wire.StatusUnavailable, "controlet: fenced (no coordinator contact)"}
)

// statusOf is the write path's one error→status mapping. Shed and
// spent-deadline failures are the retryable StatusOverloaded wherever on
// the path they happened — a downstream shed keeps its class through
// every hop back to the client, which backs off instead of hammering the
// repaired chain; a refusal carries its own status; other downstream
// failures are StatusUnavailable; the rest (the local engine refused) keep
// StatusErr. None of them was acked.
func statusOf(err error) wire.Status {
	var d downstream
	var r refusal
	switch {
	case errors.Is(err, errShed):
		return wire.StatusOverloaded
	case errors.As(err, &r):
		return r.status
	case errors.As(err, &d):
		return wire.StatusUnavailable
	default:
		return wire.StatusErr
	}
}

func failWrite(resp *wire.Response, err error) {
	resp.Status = statusOf(err)
	resp.Err = err.Error()
}

// peerErrValue folds a completed peer exchange into an error, preserving
// the overload classification across the hop: a downstream Overloaded
// becomes errShed here so the entry node answers its client with
// StatusOverloaded instead of a generic chain failure.
func peerErrValue(resp *wire.Response) error {
	if resp.Status == wire.StatusOverloaded {
		return fmt.Errorf("%w: %s", errShed, resp.Err)
	}
	return resp.ErrValue()
}
