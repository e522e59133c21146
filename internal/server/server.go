// Package server is the pacd serving layer: an HTTP JSON API over the
// experiment harness, backed by a bounded job queue and a pool of shared
// experiments.Session result caches. One resident daemon amortises
// process startup and simulation work across many small queries — the
// characterisation-study workload the ROADMAP targets.
//
// Endpoints:
//
//	GET    /v1/experiments           list runnable paper artefacts
//	POST   /v1/simulate              run one benchmark/mode simulation
//	POST   /v1/experiments/{id}/run  regenerate one paper artefact
//	GET    /v1/jobs                  list retained jobs
//	GET    /v1/jobs/{id}[?wait=30s]  job state, optionally long-polling
//	GET    /v1/jobs/{id}/events      SSE progress stream
//	DELETE /v1/jobs/{id}             cancel a queued or running job
//	GET    /healthz                  liveness
//	GET    /metrics                  Prometheus text exposition
//	/debug/pprof/*                   optional (Config.EnablePprof)
//
// Work the API accepts becomes a Job on a bounded queue served by a
// fixed worker pool; a full queue answers 429 with Retry-After, and
// SIGTERM handling in cmd/pacd drains the queue before exit. Simulation
// results are cached in experiments.Session memos keyed by a canonical
// config hash, so a repeated POST /v1/simulate is a memo hit (visible in
// pac_session_memo_hits_total) and runs no new simulation.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/store"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
)

// Config parameterises the daemon. The zero value serves the paper's
// Table 1 scale with sensible bounds.
type Config struct {
	// Options are the base experiment options: the default session every
	// experiment job and unparameterised simulate request runs in.
	Options experiments.Options
	// Parallel is the Precompute worker count for experiment jobs
	// (0: Options.Parallel, then GOMAXPROCS).
	Parallel int
	// Concurrency is the number of jobs executing at once
	// (0: GOMAXPROCS).
	Concurrency int
	// QueueDepth is exactly how many jobs may wait for a worker; a
	// submission beyond it answers 429 (default 16).
	QueueDepth int
	// MaxSessions caps the LRU pool of distinct-option sessions
	// (default 8). Each session holds memoised simulation results, so
	// the cap bounds result-cache memory.
	MaxSessions int
	// RequestTimeout caps synchronous waiting (?wait=...) per request
	// (default 60s).
	RequestTimeout time.Duration
	// JobTimeout is the per-attempt watchdog deadline: an attempt still
	// running after this long is cancelled through its context, counted
	// in pac_job_watchdog_kills_total, and retried when MaxRetries
	// allows (default 15m).
	JobTimeout time.Duration
	// MaxRetries is how many times a failed job attempt (internal
	// error, watchdog kill, or recovered panic) is retried with
	// exponential backoff before the job fails for good. 0 disables
	// retries; client cancellations are never retried.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff between attempts
	// (delay ~ base<<attempt with jitter, capped at 30s; default
	// 250ms).
	RetryBaseDelay time.Duration
	// RetainJobs bounds finished jobs kept for GET /v1/jobs
	// (default 256).
	RetainJobs int
	// SSEKeepAlive is the idle interval after which the job event
	// stream emits an SSE comment so proxies do not sever long-running
	// connections (default 15s; negative disables).
	SSEKeepAlive time.Duration
	// MaxBodyBytes caps POST request bodies; oversized requests get
	// 413 (default 1 MiB).
	MaxBodyBytes int64
	// Registry receives all metrics; nil creates a fresh one.
	Registry *telemetry.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// NodeID names this daemon within a fleet. When set, every response
	// carries an X-Pac-Node header, /healthz and job views report the
	// node, and the gateway uses it to attribute merged job listings.
	// Empty (the default) keeps single-node behaviour unchanged.
	NodeID string
	// Store, when set, is the durable content-addressed result store:
	// simulate requests consult it on a memo miss and completed results
	// are written through. It holds only entries this node wrote. Nil
	// (the default) keeps the daemon memory-only. The caller owns the
	// store's lifecycle (cmd/pacd opens it before New and closes it
	// after Drain).
	Store *store.Store
	// WAL, when set, is the write-ahead job journal: every accepted job
	// is journaled before it is acknowledged and each lifecycle
	// transition is recorded, so a crashed daemon re-enqueues its
	// unfinished jobs under their original IDs at the next boot. The
	// caller owns the journal's lifecycle (cmd/pacd opens it before New
	// and closes it after Drain), matching the Store pattern. Nil keeps
	// the queue memory-only.
	WAL *wal.Log
	// Recovered are the non-terminal jobs the WAL replayed at open; New
	// re-enqueues them during async boot, before /readyz reports ready.
	Recovered []wal.Job
	// CheckpointDir, when non-empty, holds one resumable checkpoint per
	// in-flight default-variant simulation (see internal/server
	// checkpoint.go): recovered jobs resume from their last checkpoint
	// instead of restarting, and the resumed result is byte-identical to
	// an uninterrupted run. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in simulated cycles
	// (default 2,000,000 when CheckpointDir is set).
	CheckpointEvery int64
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 250 * time.Millisecond
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 256
	}
	if c.SSEKeepAlive == 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Parallel <= 0 {
		c.Parallel = c.Options.Parallel
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.CheckpointDir != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2_000_000
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	return c
}

// Server wires the job manager, the session pool, the durable store,
// and the HTTP mux.
type Server struct {
	cfg   Config
	reg   *telemetry.Registry
	hooks *telemetry.Hooks
	pool  *sessionPool
	jobs  *jobManager
	store *store.Store
	ckpts *checkpointStore
	mux   http.Handler
	start time.Time
	// ready closes once async boot (WAL replay) finishes; /readyz
	// answers 503 until then. draining flips on Drain so the gateway's
	// readiness probes route around a stopping node before its listener
	// goes away.
	ready    chan struct{}
	draining atomic.Bool
}

// New builds a ready-to-serve server; callers mount Handler on an
// http.Server and call Drain on shutdown. The listener can be mounted
// immediately: boot work that takes real time — WAL replay — runs
// asynchronously, with /readyz reporting 503 until it finishes (Ready
// exposes the same signal programmatically).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, reg: cfg.Registry, store: cfg.Store, start: time.Now(),
		ready: make(chan struct{})}
	s.hooks = telemetry.InstrumentedHooks(s.reg)
	if cfg.CheckpointDir != "" {
		s.ckpts = newCheckpointStore(cfg.CheckpointDir, s.reg)
	}
	s.jobs = newJobManager(cfg.Concurrency, cfg.QueueDepth, cfg.JobTimeout,
		cfg.RetainJobs, cfg.MaxRetries, cfg.RetryBaseDelay, cfg.NodeID, cfg.WAL, s.hooks, s.reg)
	s.pool = newSessionPool(cfg.MaxSessions, s.hooks, s.jobs.broadcastProgress,
		s.checkpointPolicy)
	// Materialise the default session eagerly so the daemon's base
	// options are always resident and experiment jobs share one memo.
	s.pool.session(s.defaultOptions())
	s.mux = s.routes()
	go func() {
		defer close(s.ready)
		s.replayWAL(cfg.Recovered)
	}()
	return s
}

// Ready returns a channel closed once boot (WAL replay) finishes and
// /readyz starts answering 200.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// replayWAL re-enqueues the journaled, non-terminal jobs wal.Open
// recovered, under their original IDs. A payload that no longer
// resolves (changed base options, vanished experiment) is marked failed
// in the journal rather than wedging recovery. At-least-once semantics
// compose with the memo/store dedup into effectively exactly-once
// execution: a job whose work actually completed before the crash
// replays as a cache hit.
func (s *Server) replayWAL(recovered []wal.Job) {
	for _, rj := range recovered {
		var run func(ctx context.Context) (any, error)
		var meta jobMeta
		var err error
		switch rj.Kind {
		case "simulate":
			var req SimulateRequest
			var sj simulateJob
			if err = json.Unmarshal(rj.Payload, &req); err == nil {
				sj, err = s.buildSimulateRun(req)
				if err == nil {
					run, meta = sj.run, sj.meta
				}
			}
		case "experiment":
			var req experimentRequest
			if err = json.Unmarshal(rj.Payload, &req); err == nil {
				run, _, err = s.buildExperimentRun(req.ID)
			}
		default:
			err = fmt.Errorf("unknown job kind %q", rj.Kind)
		}
		if err != nil {
			if s.cfg.WAL != nil {
				_ = s.cfg.WAL.Fail(rj.ID)
			}
			s.reg.Counter("pac_jobs_recovery_failed_total",
				"Journaled jobs that no longer resolved at boot replay.", "kind", rj.Kind).Inc()
			continue
		}
		s.jobs.resubmit(rj.ID, rj.Kind, rj.Payload, meta, run)
	}
}

// defaultOptions returns the fully-specified base options (the canonical
// form every request-level default merges into).
func (s *Server) defaultOptions() experiments.Options {
	o := s.cfg.Options
	o.Parallel = s.cfg.Parallel
	return experiments.NewSession(o).Options() // normalized
}

// Registry exposes the metric registry (for /metrics and tests).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Handler returns the root handler, including /healthz and /metrics.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting jobs and waits for the backlog; see
// jobManager.drain. It first flips /readyz to 503 (so gateway probes
// route around the node) and waits for async boot to settle — draining
// concurrently with WAL replay would race re-enqueues against queue
// close. Once the jobs are done it closes the checkpoint store and
// waits for its writer to go idle, even past ctx: a cancelled job's last
// snapshot is what the next boot resumes from, and the writer holds at
// most one record per key. After Drain returns the checkpoint directory
// no longer changes, even while a cancelled job's detached simulation
// runs on to its next context poll.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	select {
	case <-s.ready:
	case <-ctx.Done():
		return ctx.Err()
	}
	err := s.jobs.drain(ctx)
	if s.ckpts != nil {
		s.ckpts.close()
	}
	return err
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.metricsHandler())
	mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	mux.HandleFunc("POST /v1/experiments/{id}/run", s.handleRunExperiment)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// metricsHandler refreshes the runtime gauges (GC pause, live heap)
// before each exposition, so scrapes see current values without a
// background sampler ticking on idle daemons.
func (s *Server) metricsHandler() http.Handler {
	inner := s.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		telemetry.SampleRuntime(s.reg)
		inner.ServeHTTP(w, r)
	})
}

// instrument counts requests per coarse route and status code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE streaming works through
// the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if s.cfg.NodeID != "" {
			sw.Header().Set("X-Pac-Node", s.cfg.NodeID)
		}
		start := time.Now()
		next.ServeHTTP(sw, r)
		route := routeLabel(r.URL.Path)
		s.reg.Counter("pac_http_requests_total", "HTTP requests by route and status.",
			"route", route, "code", strconv.Itoa(sw.code)).Inc()
		if by := r.Header.Get(ForwardedByHeader); by != "" {
			// Shard-aware view: requests that reached this node through a
			// gateway, so a fleet dashboard can split direct from routed
			// traffic per shard.
			s.reg.Counter("pac_http_forwarded_requests_total",
				"HTTP requests forwarded to this node by a gateway.",
				"route", route, "by", by).Inc()
		}
		s.reg.Histogram("pac_http_request_seconds", "HTTP request latency.",
			telemetry.DefaultDurationBuckets()).Observe(time.Since(start).Seconds())
	})
}

// Fleet headers shared between the daemon and the gateway.
const (
	// ForwardedByHeader marks a request as routed through a gateway; the
	// value names the forwarder.
	ForwardedByHeader = "X-Pac-Forwarded-By"
	// NodeHeader carries the serving node's NodeID on every response of
	// a fleet-configured daemon (and the chosen backend on gateway
	// responses).
	NodeHeader = "X-Pac-Node"
)

// routeLabel collapses request paths into a bounded label set (job and
// experiment IDs would otherwise explode series cardinality).
func routeLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/jobs"):
		if strings.HasSuffix(path, "/events") {
			return "/v1/jobs/{id}/events"
		}
		if path == "/v1/jobs" {
			return "/v1/jobs"
		}
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/experiments"):
		if strings.HasSuffix(path, "/run") {
			return "/v1/experiments/{id}/run"
		}
		return "/v1/experiments"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	case path == "/v1/simulate", path == "/healthz", path == "/readyz", path == "/metrics":
		return path
	default:
		return "other"
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":        "ok",
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
	}
	if s.cfg.NodeID != "" {
		body["node"] = s.cfg.NodeID
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is the routing probe: liveness (/healthz) says the
// process is up, readiness says it should receive traffic. It answers
// 503 while boot work (WAL replay) is still running and again once Drain
// begins, so a gateway ejects the node before its listener disappears.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status := ""
	if s.draining.Load() {
		status = "draining"
	} else {
		select {
		case <-s.ready:
		default:
			status = "booting"
		}
	}
	if status != "" {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": status})
		return
	}
	body := map[string]any{"status": "ready"}
	if s.cfg.NodeID != "" {
		body["node"] = s.cfg.NodeID
	}
	writeJSON(w, http.StatusOK, body)
}

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeAnswerView writes a done simulate job's view as writeJSON would,
// except that the stored result bytes are written as they are rather
// than re-scanned and indented: every other field keeps the two-space
// indent, the result field comes last, and the *sim.Result inside it
// stays compact.
func writeAnswerView(w http.ResponseWriter, code int, v jobView, ans *simulateAnswer) {
	view, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// view ends in "\n}": reopen the object for the result field, whose
	// own fields end in the unset Result's null, where the bytes go.
	view = view[:len(view)-2]
	const field, end = ",\n  \"result\": ", "\n}\n"
	head, _ := json.MarshalIndent(ans.head, "  ", "  ") // strings and a bool cannot fail
	i := bytes.LastIndex(head, []byte("null"))
	n := len(view) + len(field) + len(head) - len("null") + len(ans.result) + len(end)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(code)
	for _, b := range [][]byte{view, []byte(field), head[:i], ans.result, head[i+len("null"):], []byte(end)} {
		w.Write(b)
	}
}

// writeError renders the uniform error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
