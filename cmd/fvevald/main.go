// Command fvevald serves the FVEval task registry over HTTP: one
// long-lived evaluation engine backs every request, so the
// equivalence cache and judgment memo accumulate across runs and
// duplicate formal queries are solved once per process lifetime. The
// HTTP tier itself lives in internal/service; this command wires
// flags to its Config and runs the process lifecycle.
//
// The v1 surface (see internal/service and the README API reference):
//
//	GET    /v1/tasks                    registry listing
//	POST   /v1/runs                     submit (202 queued / 200 cached);
//	                                    429 quota, 503 queue-full/draining
//	GET    /v1/runs?limit=&cursor=&state=&task=  paged run listing
//	GET    /v1/runs/{id}                poll; terminal states carry the Run/Partial
//	GET    /v1/runs/{id}/events         stream progress (NDJSON; SSE on Accept)
//	GET    /v1/runs/{id}/trace          span dump of a traced run (NDJSON)
//	DELETE /v1/runs/{id}                cancel
//	POST   /v1/workers/register         join the worker fleet
//	POST   /v1/workers/{id}/heartbeat   keep a worker lease alive
//	DELETE /v1/workers/{id}             leave the fleet
//	GET    /v1/workers                  live fleet
//	GET    /metrics                     Prometheus text exposition
//	GET    /healthz, /readyz            liveness / readiness
//	GET    /debug/pprof/...             Go profiling (only with -pprof)
//
// With -data-dir the run store is persistent: terminal runs survive
// restarts byte-for-byte, queued runs are re-admitted, distributed
// runs that were in flight at a crash resume from their checkpointed
// shards, and other in-flight runs are reported interrupted.
//
// A process can be both coordinator and worker. Started with -join,
// it registers its own -advertise URL with the coordinator and
// heartbeats for as long as it lives, so the coordinator's
// distributed runs (`"distributed": true`, or `fvevalctl submit
// -distributed`) find the fleet without a static -workers list.
//
// Quick start:
//
//	fvevald -addr :8080 -data-dir /var/lib/fveval &
//	curl localhost:8080/v1/tasks
//	curl -X POST localhost:8080/v1/runs -d '{"task":"nl2sva-human","options":{"limit":10}}'
//	curl localhost:8080/v1/runs/run-000001
//	curl -N localhost:8080/v1/runs/run-000001/events
//	curl localhost:8080/metrics
//
// On SIGINT/SIGTERM the server drains gracefully: new submissions get
// 503, queued and in-flight runs land in journaled terminal states,
// event streams flush, the worker lease (if any) is dropped, and the
// process exits 0.
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
	"strings"
	"syscall"
	"time"

	"fveval/internal/engine"
	"fveval/internal/fault"
	"fveval/internal/service"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "default evaluation parallelism (0 = GOMAXPROCS)")
	cache := flag.Bool("cache", true, "memoize equivalence checks and judgments across runs (false disables every memo)")
	budget := flag.Int64("budget", 0, "SAT conflict budget per formal query (0 = default 200000)")
	maxBound := flag.Int("maxbound", 0, "cap for the formal backend's bound ramp (0 = defaults)")
	dataDir := flag.String("data-dir", "", "persistent run store directory (empty = in-memory only)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue bound (0 = 256)")
	clientQuota := flag.Int("client-quota", 0, "per-client queued+running quota (0 = 16)")
	concurrency := flag.Int("concurrency", 0, "concurrent run executors (0 = 2)")
	retain := flag.Int("retain", 0, "terminal runs retained before eviction (0 = 64)")
	retainAge := flag.Duration("retain-age", 0, "evict terminal runs older than this (0 = no age bound)")
	workerTTL := flag.Duration("worker-ttl", 0, "worker liveness window (0 = 15s)")
	resultCache := flag.Int("result-cache", 0, "cross-request result cache entries (0 = 256)")
	pprofFlag := flag.Bool("pprof", false, "mount Go profiling handlers under /debug/pprof/")
	join := flag.String("join", "", "coordinator base URL to register with as a worker")
	advertise := flag.String("advertise", "", "base URL to advertise when joining (default derived from -addr)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown deadline for flushing streams and closing connections")
	faults := flag.String("faults", "", "deterministic fault-injection plan (requires a -tags faultinject build; see internal/fault)")
	flag.Parse()

	if *faults != "" {
		if !fault.BuildEnabled {
			log.Fatalf("fvevald: -faults requires a binary built with -tags faultinject")
		}
		plan, err := fault.ParsePlan(*faults)
		if err != nil {
			log.Fatalf("fvevald: -faults: %v", err)
		}
		if err := fault.Activate(plan); err != nil {
			log.Fatalf("fvevald: -faults: %v", err)
		}
		fmt.Fprintf(os.Stderr, "fvevald: fault injection active: %s\n", fault.Describe())
	}

	cfg := engine.Config{
		Workers:  *workers,
		Budget:   *budget,
		MaxBound: *maxBound,
		NoCache:  !*cache,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("fvevald: %v", err)
	}
	srv, err := service.New(service.Config{
		Engine:          task.NewEngine(cfg),
		DataDir:         *dataDir,
		QueueDepth:      *queueDepth,
		ClientQuota:     *clientQuota,
		Concurrency:     *concurrency,
		RetainRuns:      *retain,
		RetainAge:       *retainAge,
		WorkerTTL:       *workerTTL,
		ResultCacheSize: *resultCache,
		LogWriter:       os.Stderr,
		Pprof:           *pprofFlag,
	})
	if err != nil {
		log.Fatalf("fvevald: %v", err)
	}
	hs := &http.Server{Addr: *addr, Handler: srv}

	// Worker mode: keep a registration lease alive on the coordinator
	// until shutdown.
	hbCtx, hbStop := context.WithCancel(context.Background())
	hbDone := make(chan struct{})
	if *join != "" {
		go heartbeatLoop(hbCtx, hbDone, *join, advertiseURL(*advertise, *addr))
	} else {
		close(hbDone)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		sig := <-sigc
		fmt.Printf("fvevald: %v: draining\n", sig)
		hbStop() // deregister from the coordinator first
		<-hbDone
		// Terminal states land (and are journaled) before Shutdown
		// waits on handlers, so event streams flush their final status
		// line and return.
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("fvevald: shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			log.Printf("fvevald: close: %v", err)
		}
	}()

	fmt.Printf("fvevald: serving %d tasks on %s\n", len(task.Tasks()), *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("fvevald: %v", err)
	}
	<-done
	fmt.Println("fvevald: drained, bye")
}

// advertiseURL resolves the URL this worker registers: the explicit
// -advertise flag, or one derived from the listen address.
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(addr, ":") {
		return "http://localhost" + addr
	}
	return "http://" + addr
}

// heartbeatLoop keeps this worker registered with the coordinator:
// register (retrying until the coordinator is up), heartbeat at the
// coordinator-suggested interval, re-register if the lease lapses,
// and deregister on shutdown.
func heartbeatLoop(ctx context.Context, done chan<- struct{}, coordinatorURL, selfURL string) {
	defer close(done)
	c := client.New(coordinatorURL)

	register := func() (string, time.Duration) {
		for {
			lease, err := c.RegisterWorker(ctx, selfURL)
			if err == nil {
				fmt.Printf("fvevald: registered as %s with %s (ttl %dms)\n", lease.ID, coordinatorURL, lease.TTLMS)
				interval := time.Duration(lease.IntervalMS) * time.Millisecond
				if interval <= 0 {
					interval = 5 * time.Second
				}
				return lease.ID, interval
			}
			if ctx.Err() != nil {
				return "", 0
			}
			log.Printf("fvevald: register with %s: %v (retrying)", coordinatorURL, err)
			select {
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
				return "", 0
			}
		}
	}

	id, interval := register()
	for id != "" {
		select {
		case <-ctx.Done():
			// Graceful leave: drop the lease on a fresh short deadline.
			dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			c.DeregisterWorker(dctx, id) //nolint:errcheck
			cancel()
			return
		case <-time.After(interval):
			if err := c.Heartbeat(ctx, id); err != nil {
				if ctx.Err() != nil {
					continue // ctx case handles deregistration
				}
				log.Printf("fvevald: heartbeat: %v (re-registering)", err)
				id, interval = register()
			}
		}
	}
}
