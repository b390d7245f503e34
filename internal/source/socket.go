package source

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"baywatch/internal/faultinject"
)

// SocketSource accepts proxy log lines over a stream socket (unix or
// TCP), the shape a log forwarder speaks. Connections are served one at a
// time — queued producers wait in the listen backlog — so the source's
// sequence numbering stays deterministic.
//
// Resume protocol: on accept the source greets the producer with
//
//	BAYWATCH <records>\n
//
// where <records> is the engine's current sequence number for this
// source. A producer that numbers its lines resends from there and the
// engine's sequence dedup makes redelivery exactly-once; a producer that
// ignores the greeting gets at-most-once across reconnects (whatever it
// did not resend is gone).
type SocketSource struct {
	// Network is "unix" or "tcp"; Addr the address to listen on.
	Network, Addr string
	// SourceName overrides the connector name (default: Network+"!"+Addr).
	SourceName string
	// MaxBatch bounds events per delivered batch (default 4096).
	MaxBatch int

	// bound holds the active listener's address, for tests listening on
	// ":0".
	bound atomic.Value // of string
}

// maxAcceptRetries bounds consecutive transient Accept failures before
// the source gives up and lets the supervisor restart it.
const maxAcceptRetries = 5

// Name implements Connector.
func (s *SocketSource) Name() string {
	if s.SourceName != "" {
		return s.SourceName
	}
	return s.Network + "!" + s.Addr
}

// BoundAddr reports the listening address of the current run ("" before
// the listener is up); it lets tests listen on ":0".
func (s *SocketSource) BoundAddr() string {
	if v, ok := s.bound.Load().(string); ok {
		return v
	}
	return ""
}

// Run implements Connector.
func (s *SocketSource) Run(ctx context.Context, resume Position, sink Sink) error {
	name := s.Name()
	ln, err := net.Listen(s.Network, s.Addr)
	if err != nil {
		return fmt.Errorf("source: listen %s %s: %w", s.Network, s.Addr, err)
	}
	s.bound.Store(ln.Addr().String())
	defer ln.Close()
	// Unblock the Accept below when asked to stop; bounded by this Run
	// call (closing the listener makes Accept return immediately).
	//bw:guarded listener closer, exits when Run's ctx ends
	go func() {
		<-ctx.Done()
		ln.Close()
	}()

	pos := resume
	lines := new(lineParser)
	acceptFails := 0
	for {
		if ctx.Err() != nil {
			return ctxCause(ctx)
		}
		if err := faultinject.Check(faultinject.PointSourceSocketAccept, name); err != nil {
			return fmt.Errorf("source: accept %s: %w", name, err)
		}
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctxCause(ctx)
			}
			// Transient accept failures (descriptor pressure, an aborted
			// handshake) heal on their own: back off and retry instead of
			// killing the source. A closed listener or a persistent fault
			// still ends the run.
			acceptFails++
			if errors.Is(err, net.ErrClosed) || acceptFails > maxAcceptRetries {
				return fmt.Errorf("source: accept %s: %w", name, err)
			}
			if serr := sleepCtx(ctx, netBackoff(acceptFails)); serr != nil {
				return serr
			}
			continue
		}
		acceptFails = 0
		sink.Alive()
		if _, err := fmt.Fprintf(conn, "BAYWATCH %d\n", pos.Records); err != nil {
			conn.Close()
			continue // greeting failed: the producer is already gone
		}
		// An idle producer must not block shutdown: closing the connection
		// on cancellation unblocks serveConn's read immediately.
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		err = s.serveConn(ctx, conn, name, sink, &pos, lines)
		stop()
		conn.Close()
		if err != nil {
			return err
		}
	}
}

// serveConn reads one producer connection to EOF. A read error on the
// connection (reset, broken pipe) is routine — the producer reconnects —
// and ends the connection, not the source; only sink/fault failures
// propagate. A line longer than maxLineBytes is discarded up to its
// newline and counted skipped, so a producer that sends no newline holds
// at most that much of the heap.
func (s *SocketSource) serveConn(ctx context.Context, conn net.Conn, name string, sink Sink, pos *Position, lines *lineParser) error {
	maxBatch := s.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 4096
	}
	chunk := make([]byte, 64<<10)
	framer := lineFramer{max: maxLineBytes}
	events := make([]Event, 0, maxBatch)
	deliver := func(skipped int) error {
		if len(events) == 0 && skipped == 0 {
			return nil
		}
		pos.Records += int64(len(events))
		pos.Skipped += int64(skipped)
		return sink.Deliver(Batch{Source: name, Events: events, Skipped: skipped, Pos: *pos})
	}
	for {
		if ctx.Err() != nil {
			return ctxCause(ctx)
		}
		if err := faultinject.Check(faultinject.PointSourceSocketRead, name); err != nil {
			return fmt.Errorf("source: read %s: %w", name, err)
		}
		n, err := conn.Read(chunk)
		if n > 0 {
			var skipped int
			events, skipped = framer.scan(chunk[:n], events[:0], lines)
			if derr := deliver(skipped); derr != nil {
				return derr
			}
		}
		if err != nil {
			// EOF or a connection fault: deliver the unterminated final
			// line (the producer finished it, the newline never landed),
			// then hand control back to the accept loop.
			var skipped int
			events, skipped = framer.flush(events[:0], lines)
			if derr := deliver(skipped); derr != nil {
				return derr
			}
			if ctx.Err() != nil && errors.Is(err, net.ErrClosed) {
				return ctxCause(ctx)
			}
			return nil
		}
	}
}
