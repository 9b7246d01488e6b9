package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowClientDisconnected: a client that sends part of a request line and
// then stalls is disconnected once the read deadline passes, rather than
// holding its connection and serving goroutine open.
func TestSlowClientDisconnected(t *testing.T) {
	const timeout = 200 * time.Millisecond
	srv := newHTTPServer("", http.NotFoundHandler(), timeout)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 {
		t.Fatalf("read timeouts unset: header %v, read %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /pre")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; what matters is the close.
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after %v (read %q): %v", time.Since(start), reply, err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("disconnected after %v, want about %v", waited, timeout)
	}

	// No timeout flag: both limits fall back to fixed values.
	def := newHTTPServer("", http.NotFoundHandler(), 0)
	if def.ReadHeaderTimeout != maxReadHeader || def.ReadTimeout != defaultReadTimeout {
		t.Errorf("-timeout 0: header %v, read %v; want %v, %v", def.ReadHeaderTimeout, def.ReadTimeout, maxReadHeader, defaultReadTimeout)
	}
}
