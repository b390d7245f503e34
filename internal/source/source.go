// Package source is the streaming front end of the always-on daemon: it
// turns live log sources — a proxy log file being appended and rotated, a
// unix/TCP socket fed by a forwarder, an HTTP ingest endpoint — into the
// same per-pair activity summaries the batch pipeline extracts, and keeps
// detection results current with incremental re-detection of the pairs
// whose history changed.
//
// The package splits into four layers:
//
//   - connectors (FileFollower, SocketSource, HTTPIngest) tail one live
//     source each and deliver parsed event batches with a resumable
//     Position;
//   - the Engine owns the per-pair event store, applies batches with
//     sequence-based deduplication, checkpoints durable state through an
//     fsynced atomic write (the opsloop journal conventions), and each
//     tick hands the dirty pairs' fresh summaries to its standing
//     pipeline.Incremental, which re-analyzes only what they invalidate;
//   - the supervisor wraps every connector in capped-exponential
//     retry/backoff with deterministic jitter, a per-run stall timer and
//     a per-source circuit breaker, so a flapping source degrades to
//     "its pairs are stale" instead of killing the daemon;
//   - the Daemon composes the three, drives the commit/tick cadence, and
//     serves queries (ranked pairs, per-host timeline) from a fixed set
//     of slots, shedding a request with 503 when every slot is taken.
//
// Crash safety: every durable step and every connector race window is a
// registered faultinject point (source.*), and the crash tests kill the
// engine at each one and assert restart converges to the batch pipeline's
// results over the same records.
package source

import (
	"context"
)

// Event is one observed communication of one pair, the unit every
// connector delivers: the source-agnostic shape of pipeline.PairEvent.
type Event struct {
	// Source identifies the internal endpoint (client IP).
	Source string `json:"src"`
	// Destination identifies the external endpoint (domain or IP).
	Destination string `json:"dst"`
	// TS is the event time in Unix seconds.
	TS int64 `json:"ts"`
	// Path is the URL path for the token filter ("" when the source has
	// none).
	Path string `json:"path,omitempty"`
}

// Position is a connector's resumable read position. Records is the
// authoritative sequence number — the count of events delivered since the
// source's beginning — and is what the engine deduplicates on; the other
// fields let specific connectors resume cheaply (the file follower seeks
// to Offset when the file identity still matches).
type Position struct {
	// Records counts events delivered from this source, cumulatively.
	Records int64 `json:"records"`
	// Skipped counts malformed lines dropped, cumulatively.
	Skipped int64 `json:"skipped,omitempty"`
	// Offset is the byte offset after the last delivered complete line
	// (file follower only).
	Offset int64 `json:"offset,omitempty"`
	// Dev and Inode identify the file the Offset belongs to (file
	// follower only); a mismatch on resume means the file was rotated
	// while the daemon was down and tailing restarts at the new file's
	// beginning.
	Dev   uint64 `json:"dev,omitempty"`
	Inode uint64 `json:"inode,omitempty"`
}

// Batch is one delivery from a connector: the parsed events plus the
// position after them. Pos.Records minus len(Events) is the sequence
// number of Events[0]; the engine uses it to drop events it has already
// applied when a reconnecting producer resends an overlapping range.
type Batch struct {
	// Source is the delivering connector's name.
	Source string
	// Events are the parsed events, in source order.
	Events []Event
	// Skipped counts malformed lines dropped while producing this batch.
	Skipped int
	// Pos is the connector's position after the last event of the batch.
	Pos Position
}

// Sink receives connector deliveries. The supervisor implements it,
// beating the connector's stall timer on every call before forwarding
// batches to the engine.
type Sink interface {
	// Deliver hands one batch over; a non-nil error aborts the
	// connector's current run (the supervisor restarts it). Deliver must
	// not retain b.Events after it returns: a connector reuses the slice
	// for its next batch.
	Deliver(b Batch) error
	// Alive reports liveness without data — an idle poll cycle, a quiet
	// connection — so the stall timer distinguishes an idle source from a
	// wedged one. It also means "I have handed over everything I read and
	// am about to wait": after a delivery, the daemon takes it as the
	// source having caught up and ticks on demand, so a connector must
	// not call it while it still holds read data undelivered.
	Alive()
}

// Connector tails one live source. Run delivers batches to the sink until
// the context ends or the source fails; it must return a non-nil error in
// both cases (context cancellation included, via context.Cause), so the
// supervisor can tell "asked to stop" from "source broke" by inspecting
// the outer context. resume is the engine's current position for this
// source: the connector must not redeliver events before it when it can
// avoid doing so (the engine deduplicates on Records regardless).
type Connector interface {
	// Name identifies the source; it keys positions, fault points and
	// the source's supervisor with its stall timer, and must be unique
	// within a daemon.
	Name() string
	// Run tails the source until ctx ends or the source fails.
	Run(ctx context.Context, resume Position, sink Sink) error
}

// ctxCause returns the context's cancellation cause, falling back to the
// plain error — the value connectors return when asked to stop.
func ctxCause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}
