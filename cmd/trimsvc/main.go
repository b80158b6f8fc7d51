// Command trimsvc serves the experiment service: a REST control plane
// over the same runner registry trimsim uses, with live SSE metric
// streams and the content-addressed store trimsim -cache uses.
//
//	trimsvc -addr :8089 &
//	curl -s localhost:8089/v1/runners | jq '.runners[].id'
//	curl -s -X POST localhost:8089/v1/runs -d '{"runner":"fig4"}'
//	curl -s -N localhost:8089/v1/runs/run-000001/events
//	curl -s localhost:8089/v1/runs/run-000001/result
//
// SIGINT/SIGTERM drain the service: in-flight runs get -drain to finish
// (canceled at the next sweep-cell boundary past it), SSE clients see a
// terminal event. The store needs no flush: each entry is written when
// it is made.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tcptrim/internal/cellcache"
	"tcptrim/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trimsvc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trimsvc", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8089", "listen address")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS/2)")
	cacheDir := fs.String("cache", "", "persist whole runs and sweep cells under this directory, shared with trimsim -cache (default: in-memory only)")
	drain := fs.Duration("drain", 30*time.Second, "shutdown grace for in-flight runs")
	force := fs.Bool("cache-force", false, "allow -cache without a VCS-stamped build (unsound across differing dev builds)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	version := cellcache.CodeVersion()
	if *cacheDir != "" {
		if err := cellcache.ValidatePersistent(version, *force); err != nil {
			return err
		}
	}
	svc, err := service.New(service.Config{Workers: *workers, CacheDir: *cacheDir})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(svc)
	fmt.Printf("trimsvc: listening on http://%s (code version %s)\n", ln.Addr(), version)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Println("trimsvc: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	svcErr := svc.Shutdown(drainCtx)
	httpErr := httpSrv.Shutdown(drainCtx)
	if svcErr != nil {
		return svcErr
	}
	return httpErr
}

// newHTTPServer wraps the service in a server that fails closed on stuck
// clients: a request's headers must arrive within 10 s and its body —
// at most a 1 MiB spec — within 30 s, and an idle keep-alive connection
// is closed after 2 min. There is deliberately no WriteTimeout: GET
// /v1/runs/{id}/events is an SSE stream that lives as long as its run,
// and a write deadline would cut every stream off mid-run.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
