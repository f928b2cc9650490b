// Command mpcgsd is the estimation daemon: mpcgs as a service. It
// exposes the HTTP/JSON job API of internal/serve over one shared device
// pool, journals every accepted job into its state directory before
// acknowledging it, and drains gracefully on SIGTERM/SIGINT — every
// in-flight job is checkpointed at a step boundary, so restarting the
// daemon on the same state directory resumes all of them bit-identically.
//
//	mpcgsd -state /var/lib/mpcgs [-addr 127.0.0.1:8440] [-workers N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpcgs/internal/serve"
)

// Connection timeouts. A client that trickles its request headers, or
// parks an idle keep-alive connection, must not pin a goroutine forever.
// No WriteTimeout: it would cut the long-lived SSE /events stream.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpcgsd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8440", "listen address (host:port; port 0 picks a free port)")
		state    = flag.String("state", "", "state directory for the durable job log and checkpoints (required)")
		workers  = flag.Int("workers", 0, "device pool workers (0 = GOMAXPROCS)")
		drivers  = flag.Int("drivers", 0, "concurrent job drivers (0 = worker count)")
		quantum  = flag.Int("quantum", 0, "sampler transitions per scheduling quantum (0 = 64)")
		maxJobs  = flag.Int("max-jobs", 0, "pending-job bound before submissions are shed with 429 (0 = 64)")
		ckptEvry = flag.Int("checkpoint-every", 0, "snapshot cadence in sampler transitions (0 = 500)")
		quiet    = flag.Bool("q", false, "suppress lifecycle logging")
	)
	flag.Parse()
	if *state == "" {
		fatalf("-state is required")
	}
	var logw io.Writer = os.Stdout
	if *quiet {
		logw = io.Discard
	}

	srv, err := serve.New(serve.Options{
		StateDir:        *state,
		Workers:         *workers,
		Drivers:         *drivers,
		Quantum:         *quantum,
		MaxJobs:         *maxJobs,
		CheckpointEvery: *ckptEvry,
		Log:             logw,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	// The resolved address is printed unconditionally so wrappers (and
	// the CI smoke test) can scrape the port when -addr picks port 0.
	fmt.Printf("mpcgsd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(logw, "mpcgsd: %v: draining (checkpointing in-flight jobs)\n", s)
	case err := <-serveErr:
		fatalf("%v", err)
	}

	// Drain before shutting the listener down: Drain closes the server's
	// drain channel, which unblocks any open progress streams that would
	// otherwise hold Shutdown hostage.
	if err := srv.Drain(); err != nil {
		fatalf("drain: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("shutdown: %v", err)
	}
	fmt.Fprintf(logw, "mpcgsd: drained cleanly\n")
}
