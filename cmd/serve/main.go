// Command serve is the long-lived plan/estimate daemon: a hanccr.Service
// (sharded plan LRU, batch fan-out) behind HTTP/JSON.
//
//	serve -addr :8080 -cache 256 -shards 8
//	serve -store /var/lib/hanccr -tail http://10.0.0.2:8080,http://10.0.0.3:8080
//
// Endpoints:
//
//	POST /v1/plan      {"family":"genome","tasks":300,"procs":35,"ccr":0.1}
//	POST /v1/estimate  {...scenario..., "method":"Dodin"}
//	POST /v1/simulate  {...scenario..., "trials":2000}
//	POST /v1/batch     {"jobs":[{"kind":"plan",...},{"kind":"estimate",...}]}
//	POST /v1/sweep     {"family":"montage","sizes":[300]}
//	GET  /healthz
//	GET  /v1/stats
//	GET  /v1/store     (NDJSON plan-store stream; ?segment=S&offset=N&follow=1)
//
// Scenario fields omitted from a request take the same defaults as the
// CLI flag block. -store is the daemon's one durable log: solved plans
// are written through to append-only segment files as they are
// computed and rehydrated into the cache before the listener opens, so
// a restart's first request for any known scenario is a cache hit with
// zero planning. -tail follows one or more peer replicas' stores
// (their GET /v1/store) continuously and absorbs their solved plans
// without replanning them, so a fleet of replicas behind cmd/hanccr-lb
// shares planning work without a shared disk. -store-verify
// golden-checks every record read from disk or from a peer against a
// freshly planned reference; -store-compact paces the store's
// background compaction.
// A sweep request with "stream":true (or Accept: application/x-ndjson)
// is answered as NDJSON, one row per line flushed as it is computed;
// streamed grids may hold up to -stream-cells cells (default 1M)
// because rows never accumulate server-side, where buffered sweeps
// keep the fixed 10k in-memory cap.
//
// Overload protection: -max-inflight bounds concurrently executing
// requests (excess traffic is shed immediately with 429 + Retry-After,
// and heavy batch/sweep requests are cost-shed against the remaining
// headroom before they run); -request-timeout puts a server-side
// budget on each admitted request (503 when it fires). GET /v1/stats
// exposes the gauge and counters. SIGINT/SIGTERM drain: in-flight
// requests (streams included) run to completion, new requests get a
// deterministic 503 + Connection: close, then the listener closes.
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
	"sync"
	"syscall"
	"time"

	hanccr "repro"
)

func main() {
	sf := hanccr.BindServeFlags(flag.CommandLine)
	flag.Parse()

	svc, err := sf.Service(hanccr.WithServiceLogf(log.Printf))
	if err != nil {
		fatal(err)
	}
	if sf.StructureCache > 0 {
		log.Printf("serve: near-duplicate fast path on: structure-scaffold cache holds %d structures (X-Cache: structure-hit; disable with -structure-cache 0)",
			svc.Stats().StructureCapacity)
	} else {
		log.Printf("serve: near-duplicate fast path off (-structure-cache 0): every cold plan runs the full pipeline")
	}
	tailSources, err := sf.TailSources()
	if err != nil {
		fatal(err)
	}
	if sf.Store != "" {
		start := time.Now()
		loaded, dropped, err := svc.LoadStore(context.Background(), sf.WarmWorkers)
		if err != nil {
			fatal(fmt.Errorf("store %s: %w", sf.Store, err))
		}
		st := svc.Stats()
		log.Printf("serve: store %s: rehydrated %d plans in %s (%d unusable records dropped; cache %d/%d, %d records / %d bytes on disk)",
			sf.Store, loaded, time.Since(start).Truncate(time.Millisecond), dropped,
			st.Entries, st.Capacity, st.StoreRecords, st.StoreBytes)
	}

	handlerOpts := []hanccr.HandlerOption{
		// Encode/write failures, mid-stream sweep aborts and client
		// disconnects land in the daemon log — the response status can
		// no longer carry them by the time they happen.
		hanccr.WithLogf(log.Printf),
		hanccr.WithStreamSweepCellCap(sf.StreamCells),
	}

	gate := &hanccr.DrainGate{Logf: log.Printf}
	srv := &http.Server{
		Addr:    sf.Addr,
		Handler: hanccr.AccessLog(gate.Wrap(hanccr.NewHandler(svc, handlerOpts...)), log.Printf),
		// ReadHeaderTimeout bounds slow-loris header dribble and
		// IdleTimeout reclaims abandoned keep-alive connections. There is
		// deliberately NO blanket WriteTimeout: it would sever streamed
		// NDJSON sweeps mid-flight regardless of progress. The write-side
		// budget is per request instead — -request-timeout bounds each
		// admitted request's compute, and a disconnected client tears a
		// stream down via context cancellation.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic store compaction: the same threshold check Put applies
	// on writes, re-run on a timer so a store that only ever loses
	// records (drops, superseded records) still gets
	// compacted during quiet hours.
	if sf.Store != "" && sf.StoreCompact > 0 {
		go func() {
			t := time.NewTicker(sf.StoreCompact)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := svc.CompactStore(); err != nil {
						log.Printf("serve: store compaction: %v", err)
					}
				}
			}
		}()
	}

	// -tail: continuously absorb peer replicas' solved plans into this
	// replica's cache (and store) beside live traffic. Each peer gets
	// its own follower; all stop when the shutdown signal cancels ctx.
	var tails sync.WaitGroup
	for _, src := range tailSources {
		tails.Add(1)
		go func(src string) {
			defer tails.Done()
			log.Printf("serve: tailing %s", src)
			absorbed, failed, err := svc.Follow(ctx, src, sf.WarmWorkers)
			if err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("serve: tail %s: %v (%d absorbed, %d failed)", src, err, absorbed, failed)
				return
			}
			log.Printf("serve: tail %s done (%d absorbed, %d failed)", src, absorbed, failed)
		}(src)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serve: listening on %s (cache capacity %d over %d shards)", sf.Addr, sf.Cache, sf.Shards)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("serve: shutting down (draining up to %s)", sf.Drain)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), sf.Drain)
	defer cancelDrain()
	// Drain BEFORE Shutdown: the gate answers new requests with a
	// deterministic 503 + Connection: close while in-flight work (long
	// NDJSON streams included) finishes; only then does Shutdown close
	// the listener. Shutdown first would tear the listener down
	// immediately and new connections would die as resets.
	srv.SetKeepAlivesEnabled(false)
	if err := gate.Drain(drainCtx); err != nil {
		// The drain budget ran out with requests still in flight; cut
		// them off rather than hang shutdown forever.
		log.Printf("serve: drain budget expired with requests still in flight: %v", err)
		if cerr := srv.Close(); cerr != nil {
			fatal(cerr)
		}
	} else {
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fatal(err)
		}
	}
	stop() // cancel the tail followers' context even on the errc path
	tails.Wait()
	if err := svc.CloseStore(); err != nil {
		fatal(fmt.Errorf("close store %s: %w", sf.Store, err))
	}
	st := svc.Stats()
	log.Printf("serve: bye (%d cached plans, %d hits / %d misses, %d store hits)", st.Entries, st.Hits, st.Misses, st.StoreHits)
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
