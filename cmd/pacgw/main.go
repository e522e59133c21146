// Command pacgw is the pacd fleet gateway: a stdlib-only front-end that
// consistent-hash-routes simulation and experiment jobs to backend pacd
// nodes by their canonical options hash, so repeated identical requests
// always land on the same warm session cache. It probes each backend's
// /readyz, ejects and routes around failing or booting nodes, fans sweep
// requests out across the fleet with a deterministic table merge, and
// exposes pac_gw_* Prometheus metrics. When a WAL-backed backend crashes
// and reboots, the gateway reinstates it once /readyz answers 200 and
// creates no job for it: the backend's own WAL replay finishes the jobs
// it had accepted. -max-retries bounds the failover of a routed request
// that meets a transport error, so a waiting client is still answered.
//
// Usage:
//
//	pacgw -addr :8090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	pacgw -addr :8090 -backends localhost:18081,localhost:18082 -quick
//
// The base-option flags (-cores, -accesses, -scale, -seed, -quick, ...)
// MUST match the backends' pacd flags: the gateway resolves each request
// against this base to compute the same canonical routing key the
// backends key their stores with (README "Running a pacd fleet").
//
// Each backend answers from its own result store, in memory or, with
// -store, on disk; a backend whose store lacks the result simulates.
// Responses report the source in X-Pac-Cache (memo|disk|miss).
//
// Endpoints:
//
//	GET    /healthz                  gateway + per-backend liveness
//	GET    /metrics                  pac_gw_* Prometheus exposition
//	POST   /v1/simulate              routed by canonical sim key
//	POST   /v1/experiments/{id}/run  routed by (options hash, id)
//	POST   /v1/sweep                 fan-out across the fleet, merged table
//	GET    /v1/experiments           proxied
//	GET    /v1/jobs[...]             merged / located across the fleet
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

	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/gateway"
)

func main() {
	var (
		addr        = flag.String("addr", ":8090", "listen address")
		backendsCSV = flag.String("backends", "", "comma-separated backend pacd base URLs (required)")
		replicas    = flag.Int("replicas", gateway.DefaultReplicas, "virtual nodes per backend on the hash ring")
		healthIvl   = flag.Duration("health-interval", time.Second, "backend /readyz probe period")
		failAfter   = flag.Int("fail-after", 2, "consecutive failures before a backend is ejected")
		recoverAft  = flag.Int("recover-after", 2, "consecutive successful probes before reinstating")
		maxRetries  = flag.Int("max-retries", 2, "failover attempts per routed request after a transport error")
		retryBase   = flag.Duration("retry-base", 100*time.Millisecond, "base delay of the failover backoff")
		sweepConc   = flag.Int("sweep-concurrency", 16, "in-flight simulations per sweep fan-out")
		sweepTO     = flag.Duration("sweep-timeout", 10*time.Minute, "cap on one whole sweep fan-out")

		// Fleet base options — must match the backends' pacd flags.
		cores    = flag.Int("cores", 8, "simulated cores of the fleet base options")
		accesses = flag.Int("accesses", 100_000, "trace length per core of the fleet base options")
		scale    = flag.Float64("scale", 1.0, "working-set scale factor of the fleet base options")
		seed     = flag.Uint64("seed", 42, "workload generator seed of the fleet base options")
		quick    = flag.Bool("quick", false, "fast smoke configuration (must match backend -quick)")
	)
	flag.Parse()

	if strings.TrimSpace(*backendsCSV) == "" {
		fail(errors.New("-backends is required (comma-separated pacd base URLs)"))
	}
	var backends []string
	for _, b := range strings.Split(*backendsCSV, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}

	base := experiments.Options{
		Cores:           *cores,
		AccessesPerCore: *accesses,
		Scale:           *scale,
		Seed:            *seed,
	}
	if *quick {
		base.Cores = 2
		base.AccessesPerCore = 5_000
		base.Scale = 0.02
		base.L1Bytes = 2 << 10
		base.LLCBytes = 128 << 10
	}

	gw, err := gateway.New(gateway.Config{
		Backends:         backends,
		Base:             base,
		Replicas:         *replicas,
		HealthInterval:   *healthIvl,
		FailThreshold:    *failAfter,
		RecoverThreshold: *recoverAft,
		MaxRetries:       *maxRetries,
		RetryBase:        *retryBase,
		SweepConcurrency: *sweepConc,
		SweepTimeout:     *sweepTO,
	})
	if err != nil {
		fail(err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("pacgw: serving on %s, %d backends: %s", *addr, len(backends), strings.Join(backends, ", "))

	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
	}

	log.Printf("pacgw: shutdown signal, draining connections")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("pacgw: http shutdown: %v", err)
	}
	gw.Close()
	log.Printf("pacgw: drained cleanly")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pacgw:", err)
	os.Exit(1)
}
