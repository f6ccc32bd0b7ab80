// Command hanccr-lb is the consistent-hash router in front of a fleet
// of cmd/serve replicas: it hashes each scenario request's canonical
// key (computed from the body exactly as the replicas compute it) onto
// a virtual-node ring, so every distinct scenario has one home replica
// and is planned once cluster-wide — repeats land as cache hits no
// matter which client sent them.
//
//	hanccr-lb -addr :8090 -backends http://10.0.0.2:8080,http://10.0.0.3:8080
//
// A backend that refuses (429/503) or is unreachable fails the
// request over to the next replica in ring order and sits out a
// cooldown (its Retry-After honored, capped); replica responses are
// deterministic, so the failover answer is byte-identical. Non-
// scenario traffic (batch, sweep, stats) rotates round-robin. The
// router answers its own GET /healthz (liveness + per-backend
// summaries) and GET /v1/lb/stats; tail peers (serve -tail) should
// target replicas directly, not the router.
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

	hanccr "repro"
)

func main() {
	lf := hanccr.BindLBFlags(flag.CommandLine)
	flag.Parse()

	router, err := lf.Router(hanccr.WithRouterLogf(log.Printf))
	if err != nil {
		fatal(err)
	}

	srv := &http.Server{
		Addr:    lf.Addr,
		Handler: hanccr.AccessLog(router, log.Printf),
		// Same server posture as cmd/serve: bound slow-loris headers and
		// idle keep-alives, no blanket WriteTimeout (proxied NDJSON sweep
		// streams are long-lived by design).
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("hanccr-lb: routing on %s", lf.Addr)
		for _, b := range router.Stats().Backends {
			log.Printf("hanccr-lb: backend %s", b.URL)
		}
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("hanccr-lb: shutting down (draining up to %s)", lf.Drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), lf.Drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fatal(err)
	}
	log.Printf("hanccr-lb: bye")
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "hanccr-lb:", err)
	os.Exit(1)
}
