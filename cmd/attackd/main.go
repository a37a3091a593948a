// Command attackd is the multi-tenant attack service daemon: a long-running
// HTTP/JSON job server that accepts attack configurations (cookie or TKIP,
// model or exact capture), multiplexes the resulting online.Run loops over
// bounded scheduler capacity with fair-share allocation across tenants, and
// persists every job through a content-addressed snapshot store so a
// restart resumes the whole fleet of jobs byte-identically.
//
//	# start the daemon (resumes any persisted jobs in the store)
//	attackd -listen 127.0.0.1:7200 -store /var/lib/attackd -capacity 4
//
//	# submit a §6 cookie job and follow its progress
//	curl -d '{"tenant":"alice","spec":{"attack":"cookie","secret":"C00kie"}}' \
//	     http://127.0.0.1:7200/api/v1/jobs
//	curl http://127.0.0.1:7200/api/v1/jobs/j-0000/stream
//	curl http://127.0.0.1:7200/api/v1/jobs/j-0000/result
//
// SIGTERM (or SIGINT) drains gracefully: admission stops, in-flight
// granules finish, every running job is checkpointed as suspended, and the
// next start resumes them. /metrics serves Prometheus text, /healthz flips
// to 503 once a drain begins.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/obs"
	"rc4break/internal/service"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7200", "HTTP address for the job API, /metrics and /healthz")
	dir := flag.String("store", "attackd.store", "content-addressed snapshot store directory")
	capacity := flag.Int("capacity", 2, "scheduler slots: concurrent capture granules plus decode rounds")
	tenantMax := flag.Int("tenant-max-active", 0, "per-tenant cap on unfinished jobs (0 = unlimited)")
	maxActive := flag.Int("max-active", 0, "global cap on unfinished jobs (0 = unlimited)")
	jsonOut := flag.Bool("json", false, "emit one CLI-schema JSON result line per finished job on stdout")
	flag.Parse()

	store, err := service.OpenStore(*dir)
	if err != nil {
		fatal(err)
	}
	cfg := service.Config{
		Store:           store,
		Capacity:        *capacity,
		TenantMaxActive: *tenantMax,
		MaxActive:       *maxActive,
		// Job lifecycle spans, served live at /debug/trace{,/chrome}. The
		// journal is a fixed ring, so an always-on tracer is bounded.
		Tracer: obs.NewJournal("attackd", obs.DefaultCapacity),
		Logf: func(format string, args ...interface{}) {
			fmt.Printf("[attackd] "+format+"\n", args...)
		},
	}
	if *jsonOut {
		cfg.Results = os.Stdout
	}
	srv, err := service.New(cfg)
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hs := cliutil.HTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()
	fmt.Printf("[attackd] job API on http://%s (store %s, capacity %d)\n", l.Addr(), *dir, *capacity)

	if n := srv.Resume(); n > 0 {
		fmt.Printf("[attackd] resumed %d persisted jobs\n", n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("[attackd] shutdown signal; draining (checkpointing in-flight jobs)")
		srv.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	case err := <-serveErr:
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "attackd:", err)
	os.Exit(1)
}
