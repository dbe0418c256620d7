// Command coherenced is the simulation-as-a-service daemon: it serves
// the paper's experiments over a versioned REST/SSE API, backed by a
// content-addressed result cache (identical requests never re-simulate),
// an optional durable on-disk result store (identical requests never
// re-simulate even across restarts), a bounded priority job scheduler,
// SIGTERM-triggered graceful drain, and a pull-based worker fleet that
// fans sweep points across machines.
//
// Usage:
//
//	coherenced -addr :8377 -data-dir /var/lib/coherenced
//	coherenced -role worker -join http://coordinator:8377
//
// API:
//
//	POST   /v1/jobs              submit a canonical job spec
//	GET    /v1/jobs/{id}         job status and (when done) result
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/jobs/{id}/events  runner progress snapshots over SSE
//	GET    /v1/experiments       what can be run
//	POST   /v1/fleet/*           worker registration/poll/complete
//	GET    /healthz              liveness + build info
//	GET    /readyz               readiness (503 while draining)
//	GET    /metrics              Prometheus-format service counters
//
// See the README's "Serving" section and EXPERIMENTS.md's fleet section
// for curl examples and deployment notes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coherencesim/internal/buildinfo"
	"coherencesim/internal/fleet"
	"coherencesim/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		role       = flag.String("role", "serve", "process role: serve (coordinator + API) or worker (joins a coordinator)")
		join       = flag.String("join", "", "coordinator base URL to join (worker role), e.g. http://host:8377")
		workerID   = flag.String("worker-id", "", "stable worker identity (default hostname-pid)")
		parallel   = flag.Int("parallel", 1, "worker: execution slots — shards leased and run at once")
		addr       = flag.String("addr", ":8377", "listen address")
		queue      = flag.Int("queue", 64, "admission bound per priority class; a full queue returns 429")
		jobs       = flag.Int("jobs", 2, "concurrently executing jobs")
		simWorkers = flag.Int("sim-workers", 0, "simulation worker pool width per job: 0 = NumCPU")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "in-memory result cache budget in body bytes")
		dataDir    = flag.String("data-dir", "", "durable result store directory; empty keeps results in memory only")
		storeBytes = flag.Int64("store-bytes", 1<<30, "durable store budget in body bytes (with -data-dir)")
		quota      = flag.Int("tenant-quota", 0, "max in-flight jobs per tenant (X-Tenant header); 0 = unlimited")
		quotas     = flag.String("tenant-quotas", "", "per-tenant overrides, e.g. 'alice=4,bob=8'")
		hbTimeout  = flag.Duration("heartbeat-timeout", 5*time.Second, "fleet worker heartbeat timeout before shard reassignment")
		confPath   = flag.String("config", "", "JSON file with the hot-reloadable config subset (tenant_quota, tenant_quotas); reapplied on SIGHUP or POST /v1/admin/reload")
		grace      = flag.Duration("grace", 30*time.Second, "graceful-drain window for in-flight jobs on SIGTERM")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
		version    = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("coherenced"))
		return 0
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	switch *role {
	case "worker":
		if *join == "" {
			fmt.Fprintln(os.Stderr, "coherenced: -role worker requires -join <coordinator URL>")
			return 2
		}
		return runWorker(*join, *workerID, *parallel, logf)
	case "serve":
	default:
		fmt.Fprintf(os.Stderr, "coherenced: unknown role %q (serve or worker)\n", *role)
		return 2
	}

	tenantQuotas, err := parseQuotas(*quotas)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coherenced:", err)
		return 2
	}

	svc, err := service.New(service.Config{
		Addr:             *addr,
		QueueDepth:       *queue,
		Jobs:             *jobs,
		SimWorkers:       *simWorkers,
		CacheBytes:       *cacheBytes,
		DataDir:          *dataDir,
		StoreBytes:       *storeBytes,
		TenantQuota:      *quota,
		TenantQuotas:     tenantQuotas,
		HeartbeatTimeout: *hbTimeout,
		ConfigPath:       *confPath,
		Grace:            *grace,
		PprofAddr:        *pprofAddr,
		Logf:             logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coherenced:", err)
		return 1
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	if err := svc.Run(stop); err != nil {
		fmt.Fprintln(os.Stderr, "coherenced:", err)
		return 1
	}
	return 0
}

// runWorker joins a coordinator and executes shards until SIGTERM.
func runWorker(join, id string, parallel int, logf func(string, ...any)) int {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()
	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: join,
		ID:          id,
		Parallel:    parallel,
		Logf:        logf,
	})
	logf("coherenced: worker %s joining %s", w.ID(), join)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "coherenced:", err)
		return 1
	}
	logf("coherenced: worker %s stopped", w.ID())
	return 0
}

// parseQuotas decodes "tenant=limit,tenant=limit".
func parseQuotas(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	m := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-quotas entry %q (want tenant=limit)", part)
		}
		var n int
		if _, err := fmt.Sscanf(val, "%d", &n); err != nil || n < 0 {
			return nil, fmt.Errorf("bad -tenant-quotas limit %q for %q", val, name)
		}
		m[name] = n
	}
	return m, nil
}
