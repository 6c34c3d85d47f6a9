package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected opens a connection that never
// finishes its request headers: the server must close it once the
// header timeout passes. The timeout is shortened to keep the test fast.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	hs := newHTTPServer("", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut off long sweep streams", hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		hs.Close()
		wg.Wait()
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/stats HTTP/1.1\r\nHost: smtsweepd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v: the server never timed out the headers", time.Since(start))
	}
	if waited := time.Since(start); waited < hs.ReadHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the header timeout %v", waited, hs.ReadHeaderTimeout)
	}
}
