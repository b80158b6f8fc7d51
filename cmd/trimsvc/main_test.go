package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestHTTPServerDropsSlowHeaderClient: the server trimsvc serves with has
// every read-side timeout set and no write timeout, and — with the header
// timeout scaled down so the test does not wait 10 s — closes a connection
// whose request headers never finish, while a normal request on the same
// server is answered.
func TestHTTPServerDropsSlowHeaderClient(t *testing.T) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts header=%v read=%v idle=%v, want all set", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v: it would cut long-lived SSE streams", srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET / HTTP/1.1\r\nHost: trimsvc\r\nX-Never-Ends: "); err != nil {
		t.Fatal(err)
	}
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(slow) // returns once the server closes the connection
	if err != nil {
		t.Fatalf("slow-header connection still open after 5 s (read %q): %v", reply, err)
	}
	if strings.Contains(string(reply), "200 OK") {
		t.Errorf("slow-header client was served: %q", reply)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Errorf("normal request: status %d body %q", resp.StatusCode, body)
	}
}
