package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/fleet"
	"coherencesim/internal/store"
)

// State is the service lifecycle position: starting → ready → draining
// → stopped, modeled on long-running-agent component lifecycles (start
// serving only once dependencies are up; on shutdown flip readiness
// first, then drain work, then close the listener).
type State int32

const (
	StateStarting State = iota
	StateReady
	StateDraining
	StateStopped
)

// String names the state for /readyz and logs.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	}
	return "unknown"
}

// Lifecycle tracks the service state for readiness reporting.
type Lifecycle struct{ state atomic.Int32 }

// NewLifecycle starts in StateStarting.
func NewLifecycle() *Lifecycle { return &Lifecycle{} }

// State returns the current state.
func (l *Lifecycle) State() State { return State(l.state.Load()) }

// to moves to a new state.
func (l *Lifecycle) to(s State) { l.state.Store(int32(s)) }

// Config assembles a Service.
type Config struct {
	Addr       string        // listen address (default :8377)
	QueueDepth int           // scheduler admission bound per priority class
	Jobs       int           // concurrently executing jobs
	SimWorkers int           // per-job simulation pool width (0 = GOMAXPROCS)
	CacheBytes int64         // in-memory result cache body-byte budget (default 256 MiB)
	Grace      time.Duration // drain grace period (default 30s)
	// DataDir, when non-empty, is the durable layer under the job cache
	// and the point memo: finished documents and fleet-simulated points
	// are written one file per content address, and identical specs
	// replay byte-identical across daemon restarts. Empty keeps results
	// purely in memory.
	DataDir    string
	StoreBytes int64 // durable store byte budget (default 1 GiB, used with DataDir)
	// TenantQuota bounds in-flight admitted jobs per tenant (X-Tenant
	// header); TenantQuotas overrides the bound for specific tenants.
	// Zero means unlimited. Cache and store hits never count against a
	// quota — only work that actually occupies the scheduler.
	TenantQuota  int
	TenantQuotas map[string]int
	// HeartbeatTimeout is how long the fleet coordinator waits without a
	// worker heartbeat before declaring it dead and reassigning its
	// shards (default 5s).
	HeartbeatTimeout time.Duration
	// ConfigPath, when non-empty, names a JSON file holding the
	// hot-reloadable subset of this configuration (see ReloadConfig).
	// It is applied at startup and re-read — without dropping leases,
	// jobs, or workers — on SIGHUP or POST /v1/admin/reload.
	ConfigPath string
	// PprofAddr, when non-empty, serves the net/http/pprof profiling
	// endpoints on a separate listener at this address (conventionally
	// localhost-only), keeping the debug surface off the public API
	// port. Empty disables profiling entirely.
	PprofAddr string
	Logf      func(format string, args ...any)
}

// Service is the assembled daemon: scheduler + API server + lifecycle
// + fleet coordinator.
type Service struct {
	cfg     Config
	sched   *Scheduler
	life    *Lifecycle
	coord   *fleet.Coordinator
	srv     *Server
	reloads atomic.Uint64
}

// New builds a service executing jobs on the real simulator, all through
// one point memo that lives as long as the service: a point an earlier
// job simulated (figures 8, 9 and 10 project the same runs) is answered
// from it. When cfg.DataDir is set, the durable store is opened (and
// repaired) before serving; when fleet workers are registered, sweep
// jobs are decomposed across them.
func New(cfg Config) (*Service, error) { return newService(cfg, nil) }

// newService is the test seam: any ExecFunc in place of the memo's.
func newService(cfg Config, exec ExecFunc) (*Service, error) {
	if cfg.Addr == "" {
		cfg.Addr = ":8377"
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 30 * time.Second
	}
	var st *store.Store
	if cfg.DataDir != "" {
		budget := cfg.StoreBytes
		if budget <= 0 {
			budget = 1 << 30
		}
		var err error
		if st, err = store.Open(cfg.DataDir, budget); err != nil {
			return nil, fmt.Errorf("open result store: %w", err)
		}
	}
	memo := experiments.NewPointMemo(experiments.PointStore(st))
	if exec == nil {
		exec = memoExecutor(memo)
	}
	coord := fleet.NewCoordinator(fleet.Config{
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		Memo:             memo,
		Logf:             cfg.Logf,
	})
	life := NewLifecycle()
	sched := NewScheduler(SchedulerConfig{
		QueueDepth:   cfg.QueueDepth,
		Jobs:         cfg.Jobs,
		SimWorkers:   cfg.SimWorkers,
		CacheBytes:   cfg.CacheBytes,
		Store:        st,
		TenantQuota:  cfg.TenantQuota,
		TenantQuotas: cfg.TenantQuotas,
	}, NewFleetExec(exec, coord))
	svc := &Service{cfg: cfg, sched: sched, life: life, coord: coord}
	svc.srv = NewServer(sched, life, coord, svc, memo)
	if cfg.ConfigPath != "" {
		// Apply (and validate) the reloadable file before serving: a
		// config the daemon cannot start with is not one it should
		// accept a SIGHUP for either.
		if _, err := svc.Reload(nil); err != nil {
			coord.Close()
			return nil, fmt.Errorf("load %s: %w", cfg.ConfigPath, err)
		}
	}
	return svc, nil
}

// ReloadConfig is the hot-reloadable subset of Config, as carried by
// the -config JSON file and the POST /v1/admin/reload body. Absent
// fields keep their current values, so a reload is always a delta.
type ReloadConfig struct {
	TenantQuota  *int           `json:"tenant_quota,omitempty"`
	TenantQuotas map[string]int `json:"tenant_quotas,omitempty"`
}

// ReloadStatus reports the effective configuration after a reload.
type ReloadStatus struct {
	Source       string         `json:"source"` // "request" or the config file path
	TenantQuota  int            `json:"tenant_quota"`
	TenantQuotas map[string]int `json:"tenant_quotas,omitempty"`
}

// Reload applies a configuration delta without restarting: tenant
// quotas swap on the scheduler, while leases, queued jobs, and
// registered workers are untouched. An empty delta re-reads
// cfg.ConfigPath (the SIGHUP path); otherwise delta is the JSON itself
// (the admin-endpoint path). Either way it must be one ReloadConfig
// object and nothing else, or nothing is applied.
func (s *Service) Reload(delta []byte) (ReloadStatus, error) {
	source := "request"
	if len(delta) == 0 {
		if s.cfg.ConfigPath == "" {
			return ReloadStatus{}, fmt.Errorf("no -config file to reload")
		}
		source = s.cfg.ConfigPath
		var err error
		if delta, err = os.ReadFile(s.cfg.ConfigPath); err != nil {
			return ReloadStatus{}, err
		}
	}
	rc := &ReloadConfig{}
	dec := json.NewDecoder(bytes.NewReader(delta))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rc); err != nil {
		return ReloadStatus{}, fmt.Errorf("parse %s: %w", source, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return ReloadStatus{}, fmt.Errorf("parse %s: data after the config object", source)
	}
	quota, quotas := s.sched.Quotas()
	if rc.TenantQuota != nil {
		quota = *rc.TenantQuota
	}
	if rc.TenantQuotas != nil {
		quotas = rc.TenantQuotas
	}
	s.sched.SetQuotas(quota, quotas)
	quota, quotas = s.sched.Quotas()
	s.reloads.Add(1)
	s.logf("coherenced: config reloaded from %s (tenant quota %d, %d overrides)", source, quota, len(quotas))
	return ReloadStatus{Source: source, TenantQuota: quota, TenantQuotas: quotas}, nil
}

// Reloads counts successful configuration reloads (for /metrics).
func (s *Service) Reloads() uint64 { return s.reloads.Load() }

// Handler returns the API handler (httptest servers mount this).
func (s *Service) Handler() http.Handler { return s.srv.Handler() }

// Scheduler exposes the scheduler (tests, diagnostics).
func (s *Service) Scheduler() *Scheduler { return s.sched }

// Coordinator exposes the fleet coordinator (tests, diagnostics).
func (s *Service) Coordinator() *fleet.Coordinator { return s.coord }

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Run binds the listener, serves until a signal arrives on stop, then
// executes the graceful-drain sequence: flip readiness (load balancers
// stop routing), stop admission and give in-flight jobs cfg.Grace to
// finish, cancel stragglers, and shut the HTTP server down. A clean
// drain returns nil.
func (s *Service) Run(stop <-chan os.Signal) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if s.cfg.PprofAddr != "" {
		pln, err := net.Listen("tcp", s.cfg.PprofAddr)
		if err != nil {
			ln.Close()
			return err
		}
		// An explicit mux rather than http.DefaultServeMux: only the
		// profiling endpoints are exposed, and only on this listener.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Handler: mux}
		go pprofSrv.Serve(pln)
		defer pprofSrv.Close()
		s.logf("coherenced: pprof on http://%s/debug/pprof/", pln.Addr())
	}
	httpSrv := &http.Server{Handler: s.srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	s.life.to(StateReady)
	s.logf("coherenced: serving on %s", ln.Addr())

serving:
	for {
		select {
		case sig := <-stop:
			if sig == syscall.SIGHUP {
				// Hot reload, not shutdown: re-read the config file and
				// keep serving. Leases and jobs are untouched.
				if st, err := s.Reload(nil); err != nil {
					s.logf("coherenced: SIGHUP reload failed: %v", err)
				} else {
					s.logf("coherenced: SIGHUP applied %s", st.Source)
				}
				continue
			}
			s.logf("coherenced: received %v, draining (grace %s)", sig, s.cfg.Grace)
			break serving
		case err := <-serveErr:
			s.life.to(StateStopped)
			return err
		}
	}

	s.life.to(StateDraining)
	if s.sched.Drain(s.cfg.Grace) {
		s.logf("coherenced: all jobs finished within grace period")
	} else {
		s.logf("coherenced: grace period expired, cancelled remaining jobs")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	s.coord.Close()
	s.life.to(StateStopped)
	s.logf("coherenced: stopped")
	return nil
}
