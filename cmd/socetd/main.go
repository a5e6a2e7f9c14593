// Command socetd is the crash-tolerant evaluation daemon: an HTTP/JSON
// API (internal/serve/api) over the journaled job manager
// (internal/serve/job), running evaluate, campaign and explore jobs on
// a lease-based worker pool.
//
// Usage:
//
//	socetd -dir state/ [-addr 127.0.0.1:0] [-workers N] [-queue 8]
//	       [-lease 30s] [-job-timeout 10m] [-drain-timeout 30s]
//	       [-checkpoint-every 5s]
//	       [-trace out.ndjson] [-metrics out.json] [-obs 127.0.0.1:0]
//
// The state directory holds the job journal, every running job's shard
// checkpoints and, under testsets/, the ATPG test set of every core the
// daemon has prepared. Kill the daemon however you like — SIGKILL
// included — and the next start recovers every unfinished job from the
// journal and re-runs it incrementally from its checkpoints, converging
// on the byte-identical result an uninterrupted run produces. A core
// whose test set is already stored, from before a restart or from an
// earlier chip that shares it, is not run through ATPG again.
//
// SIGTERM (or SIGINT) drains gracefully: admission stops (readyz flips
// to 503, new submissions get 503 + Retry-After), in-flight jobs get
// the drain deadline to finish, and whatever misses it is checkpointed
// and left journaled for the next start. The bound address is printed
// on startup as "listening on ADDR" so scripts can use -addr :0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs/obscli"
	"repro/internal/serve/api"
	"repro/internal/serve/job"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("socetd: ")
	addr := flag.String("addr", "127.0.0.1:0", "address to serve the API on (port 0 picks a free port)")
	dir := flag.String("dir", "", "state directory for the job journal, shard checkpoints and stored test sets (required)")
	workers := flag.Int("workers", 0, "worker pool width (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 8, "max unfinished jobs before submissions get 429")
	lease := flag.Duration("lease", 30*time.Second, "heartbeat lease TTL for shard work units")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "default per-job deadline (a spec's timeout overrides it)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before checkpointing them for the next start")
	every := flag.Duration("checkpoint-every", 0, "shard checkpoint interval (0 = the shard default)")
	retries := flag.Int("retries", 0, "attempts per shard unit before its job fails (0 = default)")
	obsCfg := obscli.AddFlags(flag.CommandLine)
	flag.Parse()
	if *dir == "" {
		log.Fatal("-dir is required")
	}

	sess, err := obsCfg.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	m, err := job.New(job.Options{
		Dir:        *dir,
		Workers:    *workers,
		QueueLimit: *queue,
		LeaseTTL:   *lease,
		Attempts:   *retries,
		Timeout:    *jobTimeout,
		Every:      *every,
	})
	if err != nil {
		log.Fatal(err)
	}
	if n := m.Unfinished(); n > 0 {
		log.Printf("recovered %d unfinished job(s) from %s", n, *dir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: api.New(m, api.Options{})}
	log.Printf("listening on %s (state in %s)", ln.Addr(), *dir)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case s := <-sig:
		log.Printf("%s: draining (deadline %v)", s, *drainTimeout)
	case err := <-serveErr:
		m.Close()
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		log.Printf("drain deadline exceeded; unfinished jobs are checkpointed for the next start")
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("drained")
}
