package source

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

// dialSource connects to the socket source once its listener is up and
// returns the connection plus the parsed greeting sequence number.
func dialSource(t *testing.T, s *SocketSource) (net.Conn, int64) {
	t.Helper()
	// BoundAddr may briefly hold a previous run's (closed) listener across
	// restarts, so retry the dial until the live listener answers.
	var conn net.Conn
	for i := 0; i < 500; i++ {
		if addr := s.BoundAddr(); addr != "" {
			var err error
			if conn, err = net.Dial("tcp", addr); err == nil {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if conn == nil {
		t.Fatal("socket source never became dialable")
	}
	greeting, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		conn.Close()
		t.Fatalf("reading greeting: %v", err)
	}
	var records int64
	if _, err := fmt.Sscanf(greeting, "BAYWATCH %d", &records); err != nil {
		conn.Close()
		t.Fatalf("greeting %q does not parse: %v", greeting, err)
	}
	return conn, records
}

// TestSocketGreetingResumeAcrossReconnect drives the resume protocol: the
// greeting tells a reconnecting producer the source's sequence number, the
// producer resends from there, and the unterminated final line of a dying
// connection is still delivered.
func TestSocketGreetingResumeAcrossReconnect(t *testing.T) {
	s := &SocketSource{Network: "tcp", Addr: "127.0.0.1:0", SourceName: "sock"}
	c := &collectSink{stopAt: 5}
	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// bounded goroutine: test connector run, ends via sink stop and is awaited on done
	go func() { done <- s.Run(ctx, Position{}, c) }()

	conn, records := dialSource(t, s)
	if records != 0 {
		t.Fatalf("first greeting resumes at %d, want 0", records)
	}
	// Three lines, the last without its newline: the producer dies mid-write.
	lines := lineSeq(1000, 3)
	if _, err := conn.Write([]byte(strings.TrimSuffix(lines, "\n"))); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The reconnect greeting reflects everything delivered — including the
	// finished-but-unterminated final line — so the producer resends only
	// what the source never saw.
	conn2, records := dialSource(t, s)
	if records != 3 {
		t.Fatalf("reconnect greeting resumes at %d, want 3", records)
	}
	if _, err := conn2.Write([]byte(lineSeq(1003, 2))); err != nil {
		t.Fatal(err)
	}
	err := <-done
	conn2.Close()
	if !errors.Is(err, sinkStop{}) {
		t.Fatalf("run ended with %v, want scripted stop", err)
	}
	sameTS(t, c.tsOf(), tsRange(1000, 5))
	if c.pos.Records != 5 {
		t.Fatalf("position = %d records, want 5", c.pos.Records)
	}
}

// TestSocketFaultPoints injects failures at
// faultinject.PointSourceSocketAccept and
// faultinject.PointSourceSocketRead: both abort the run with a cause the
// supervisor can book, and a restart resumes the sequence.
func TestSocketFaultPoints(t *testing.T) {
	errInjected := fmt.Errorf("injected")
	sched := faultinject.New(3)
	sched.FailAt(faultinject.PointSourceSocketAccept.Keyed("sock"), 1, errInjected)
	sched.FailAt(faultinject.PointSourceSocketRead.Keyed("sock"), 1, errInjected)
	t.Cleanup(faultinject.Install(sched.Hook()))

	s := &SocketSource{Network: "tcp", Addr: "127.0.0.1:0", SourceName: "sock"}
	c := &collectSink{stopAt: 2}
	// Run 1: the accept fault fires before the listener blocks.
	err := s.Run(context.Background(), Position{}, c)
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "accept") {
		t.Fatalf("run 1 ended with %v, want injected accept failure", err)
	}

	// Run 2: accept succeeds (hit 2), the first connection read faults.
	done := make(chan error, 1)
	// bounded goroutine: test connector run, ends via injected read fault and is awaited on done
	go func() { done <- s.Run(context.Background(), Position{}, c) }()
	conn, _ := dialSource(t, s)
	defer conn.Close()
	err = <-done
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "read") {
		t.Fatalf("run 2 ended with %v, want injected read failure", err)
	}

	// Run 3: clean; the supervisor-style restart resumes and delivers.
	// bounded goroutine: test connector run, ends via sink stop and is awaited on done
	go func() { done <- s.Run(context.Background(), c.pos, c) }()
	conn3, records := dialSource(t, s)
	if records != 0 {
		t.Fatalf("greeting resumes at %d, want 0 (nothing delivered yet)", records)
	}
	if _, err := conn3.Write([]byte(lineSeq(1000, 2))); err != nil {
		t.Fatal(err)
	}
	err = <-done
	conn3.Close()
	if !errors.Is(err, sinkStop{}) {
		t.Fatalf("run 3 ended with %v, want scripted stop", err)
	}
	sameTS(t, c.tsOf(), tsRange(1000, 2))
}

// TestSocketStopsOnContextCancel: cancelling the run context unblocks the
// accept loop promptly and returns the cancellation cause.
func TestSocketStopsOnContextCancel(t *testing.T) {
	s := &SocketSource{Network: "tcp", Addr: "127.0.0.1:0", SourceName: "sock"}
	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: test connector run, cancelled below and awaited on done
	go func() { done <- s.Run(ctx, Position{}, &collectSink{}) }()
	_, records := dialSource(t, s) // ensure the listener is up first
	if records != 0 {
		t.Fatalf("greeting resumes at %d, want 0", records)
	}
	stopCause := fmt.Errorf("test says stop")
	cancel(stopCause)
	select {
	case err := <-done:
		if !errors.Is(err, stopCause) {
			t.Fatalf("run returned %v, want the cancellation cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
}
