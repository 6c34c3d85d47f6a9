// Command smtsweepd serves sweeps: an HTTP API over a content-addressed
// on-disk cell store with a pool of simulator workers behind it. Cells
// already in the store are cache hits; novel cells simulate exactly
// once each. Several smtsweepd processes may share one -store directory
// — they coordinate through lease files, and a killed worker's cells
// are re-claimed when its leases expire.
//
// Usage:
//
//	smtsweepd -addr :8344 -store ./cellstore
//	smtsweep  -server http://localhost:8344 -fig fig3
//
// SIGINT/SIGTERM shut down gracefully: workers stop at the next cell
// boundary and the pending queue is checkpointed into the store
// directory, so a restart resumes where it left off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smtsim/internal/cellstore"
	"smtsim/internal/sweepd"
)

func main() {
	var (
		addr     = flag.String("addr", ":8344", "listen address")
		storeDir = flag.String("store", "cellstore", "cell store directory (created if absent)")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		leaseTTL = flag.Duration("lease-ttl", time.Minute, "worker lease on a cell; expired leases are stolen by other workers")
		quiet    = flag.Bool("q", false, "suppress per-event logging")
	)
	flag.Parse()
	switch {
	case *workers < 0:
		usage("-workers must be non-negative, got %d", *workers)
	case *leaseTTL <= 0:
		usage("-lease-ttl must be positive, got %v", *leaseTTL)
	case flag.NArg() > 0:
		usage("unexpected arguments: %v", flag.Args())
	}

	store, err := cellstore.Open(*storeDir)
	if err != nil {
		log.Fatalf("smtsweepd: %v", err)
	}
	cfg := sweepd.Config{Store: store, Workers: *workers, LeaseTTL: *leaseTTL}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv, err := sweepd.New(cfg)
	if err != nil {
		log.Fatalf("smtsweepd: %v", err)
	}

	hs := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	//smt:fire-and-forget(process-lifetime listener; hs.Shutdown below unblocks it and main exits)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("smtsweepd: serving on %s, store %s (%d cells)", *addr, *storeDir, store.Len())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("smtsweepd: %v: draining workers and checkpointing queue", sig)
	case err := <-errc:
		log.Fatalf("smtsweepd: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("smtsweepd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		log.Fatalf("smtsweepd: %v", err)
	}
}

// Connection timeouts. A client gets readHeaderTimeout to send its
// request headers and may hold an idle keep-alive connection for
// idleTimeout; past either, the server closes the connection, so slow
// or abandoned clients cannot pin connections forever. There is no
// write timeout: the NDJSON stream route stays open for the whole sweep.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server over h.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smtsweepd: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}
