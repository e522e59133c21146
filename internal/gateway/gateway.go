package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/telemetry"
)

// Config parameterises the gateway. Backends is required; every other
// zero value gets a production-sensible default.
type Config struct {
	// Backends are the pacd base URLs (e.g. "http://10.0.0.1:8080").
	// The configured set is the ring membership; health ejection routes
	// around members without changing ownership.
	Backends []string
	// Base is the fleet-wide base option set. It MUST match the
	// backends' own base options (same pacd flags fleet-wide): the
	// gateway resolves requests against it to compute the canonical
	// routing key, and a mismatched base would still route consistently
	// but hash-disagree with the backends' own store keys.
	Base experiments.Options
	// Replicas is the virtual-node count per backend on the ring
	// (default DefaultReplicas).
	Replicas int
	// HealthInterval is the backend /readyz probe period (default 1s).
	HealthInterval time.Duration
	// FailThreshold ejects a backend after this many consecutive failed
	// probes or proxy transport errors (default 2).
	FailThreshold int
	// RecoverThreshold reinstates an ejected backend after this many
	// consecutive successful probes (default 2).
	RecoverThreshold int
	// MaxRetries is how many additional backends a routed request is
	// retried on after a transport error or gateway-class 5xx, reusing
	// the daemon's jittered exponential backoff (default 2). A backend
	// 429 is never retried: its Retry-After is propagated to the client
	// so load shedding reaches the source instead of reheating the
	// fleet.
	MaxRetries int
	// RetryBase seeds the backoff between proxy retries (default 100ms,
	// capped at 2s).
	RetryBase time.Duration
	// MaxBodyBytes caps request bodies the gateway will buffer for
	// routing and retries; oversized requests get 413 (default 1 MiB).
	MaxBodyBytes int64
	// SweepConcurrency bounds in-flight fan-out simulations per sweep
	// request (default 16).
	SweepConcurrency int
	// SweepTimeout caps one whole sweep fan-out (default 10m).
	SweepTimeout time.Duration
	// Registry receives the pac_gw_* metrics; nil creates a fresh one.
	Registry *telemetry.Registry
	// Client performs backend requests; nil builds one with no overall
	// timeout (long-poll ?wait= flows through) that keeps
	// SweepConcurrency idle connections per backend.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SweepConcurrency <= 0 {
		c.SweepConcurrency = 16
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 10 * time.Minute
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Client == nil {
		// A sweep may hold SweepConcurrency cells in flight on one
		// backend. Keeping that many idle connections per backend lets
		// the next sweep reuse them; the transport's default of 2 made
		// every sweep dial most of its connections again.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = c.SweepConcurrency
		t.MaxIdleConns = max(t.MaxIdleConns, c.SweepConcurrency*len(c.Backends))
		c.Client = &http.Client{Transport: t}
	}
	return c
}

// backend is one fleet member with its health state.
type backend struct {
	name string // normalized base URL; ring key and metrics label

	mu         sync.Mutex
	up         bool
	consecFail int
	consecOK   int
}

func (b *backend) isUp() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.up
}

// Gateway routes fleet traffic; build with New, mount Handler, and call
// Close on shutdown.
type Gateway struct {
	cfg      Config
	base     experiments.Options // normalized fleet base options
	baseKey  string              // OptionsHash(base)
	reg      *telemetry.Registry
	ring     *Ring
	backends map[string]*backend
	names    []string // sorted backend names
	mux      http.Handler
	start    time.Time

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	affHits   *telemetry.Counter
	affMisses *telemetry.Counter
}

// New builds the gateway and starts its health loop.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	g := &Gateway{
		cfg:      cfg,
		reg:      cfg.Registry,
		backends: make(map[string]*backend),
		start:    time.Now(),
		stop:     make(chan struct{}),
	}
	g.base = cfg.Base.Normalized()
	g.baseKey = server.OptionsHash(g.base)
	g.ring = NewRing(cfg.Replicas)
	for _, raw := range cfg.Backends {
		name := strings.TrimRight(strings.TrimSpace(raw), "/")
		if name == "" {
			continue
		}
		if !strings.Contains(name, "://") {
			name = "http://" + name
		}
		if _, dup := g.backends[name]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %s", name)
		}
		// Start optimistic: traffic flows before the first probe round,
		// and a genuinely dead node is ejected within FailThreshold
		// probes (or faster, through proxy transport errors).
		g.backends[name] = &backend{name: name, up: true}
		g.names = append(g.names, name)
		g.ring.Add(name)
		g.reg.Gauge("pac_gw_backend_up", "Backend liveness as seen by the gateway health loop.",
			"backend", name).Set(1)
	}
	if len(g.backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	sort.Strings(g.names)
	g.affHits = g.reg.Counter("pac_gw_affinity_hits_total",
		"Routed requests served by their intended node (the key's ring owner, or a sweep cell's assigned node).")
	g.affMisses = g.reg.Counter("pac_gw_affinity_misses_total",
		"Routed requests served by a failover candidate instead of their intended node.")
	g.reg.GaugeFunc("pac_gw_affinity_hit_ratio",
		"Fraction of routed requests that reached their intended node (1.0 on a healthy fleet).",
		func() float64 {
			h, m := g.affHits.Value(), g.affMisses.Value()
			if h+m == 0 {
				return 1
			}
			return h / (h + m)
		})
	g.mux = g.routes()
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// Handler returns the gateway's root handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Registry exposes the metric registry.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// BaseOptions returns the normalized fleet base options.
func (g *Gateway) BaseOptions() experiments.Options { return g.base }

// Close stops the health loop.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

func (g *Gateway) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.Handle("GET /metrics", g.reg.Handler())
	mux.HandleFunc("POST /v1/simulate", g.handleSimulate)
	mux.HandleFunc("POST /v1/experiments/{id}/run", g.handleRunExperiment)
	mux.HandleFunc("GET /v1/experiments", g.handleListExperiments)
	mux.HandleFunc("POST /v1/sweep", g.handleSweep)
	mux.HandleFunc("GET /v1/jobs", g.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleJob)
	return g.instrument(mux)
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (g *Gateway) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		g.reg.Counter("pac_gw_http_requests_total", "Gateway requests by route and status.",
			"route", routeLabel(r.URL.Path), "code", fmt.Sprint(sw.code)).Inc()
		g.reg.Histogram("pac_gw_http_request_seconds", "Gateway request latency, backend time included.",
			telemetry.DefaultDurationBuckets()).Observe(time.Since(start).Seconds())
	})
}

// routeLabel collapses paths into a bounded label set (mirrors the
// daemon's).
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
	case path == "/v1/simulate", path == "/v1/sweep", path == "/healthz", path == "/metrics":
		return path
	default:
		return "other"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// ---------------------------------------------------------------------
// Health: probe loop, ejection, recovery.

func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.probeAll()
		}
	}
}

func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.probe(b)
		}(b)
	}
	wg.Wait()
}

// probeTimeout bounds one /readyz probe. It is fixed, not derived from
// HealthInterval: a short interval must not turn a slow answer from a
// healthy but loaded backend into an ejection.
const probeTimeout = 2 * time.Second

// probe hits one backend's /readyz — readiness, not liveness — with a
// probeTimeout deadline, so a wedged backend cannot stall the loop. A
// daemon that is up but still replaying its WAL (or draining) answers 503
// there and stays ejected until it can actually take traffic.
func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.name+"/readyz", nil)
	if err != nil {
		g.noteFailure(b)
		return
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		g.noteFailure(b)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	g.reg.Counter("pac_gw_health_probes_total", "Health probes by backend and outcome.",
		"backend", b.name, "ok", fmt.Sprint(resp.StatusCode == http.StatusOK)).Inc()
	if resp.StatusCode == http.StatusOK {
		g.noteSuccess(b)
	} else {
		g.noteFailure(b)
	}
}

// noteFailure records one failed probe or proxy transport error,
// ejecting the backend at the threshold.
func (g *Gateway) noteFailure(b *backend) {
	b.mu.Lock()
	b.consecOK = 0
	b.consecFail++
	eject := b.up && b.consecFail >= g.cfg.FailThreshold
	if eject {
		b.up = false
	}
	b.mu.Unlock()
	if eject {
		g.reg.Counter("pac_gw_ejections_total", "Backends ejected after consecutive failures.",
			"backend", b.name).Inc()
		g.reg.Gauge("pac_gw_backend_up", "Backend liveness as seen by the gateway health loop.",
			"backend", b.name).Set(0)
	}
}

// noteSuccess records one successful probe, reinstating an ejected
// backend at the threshold.
func (g *Gateway) noteSuccess(b *backend) {
	b.mu.Lock()
	b.consecFail = 0
	b.consecOK++
	reinstate := !b.up && b.consecOK >= g.cfg.RecoverThreshold
	if reinstate {
		b.up = true
	}
	b.mu.Unlock()
	if reinstate {
		g.reg.Counter("pac_gw_recoveries_total", "Ejected backends reinstated after recovering.",
			"backend", b.name).Inc()
		g.reg.Gauge("pac_gw_backend_up", "Backend liveness as seen by the gateway health loop.",
			"backend", b.name).Set(1)
	}
}

// alive returns the live backends among names, preserving order.
func (g *Gateway) alive(names []string) []*backend {
	out := make([]*backend, 0, len(names))
	for _, n := range names {
		if b := g.backends[n]; b != nil && b.isUp() {
			out = append(out, b)
		}
	}
	return out
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type nodeView struct {
		Backend string `json:"backend"`
		Up      bool   `json:"up"`
	}
	views := make([]nodeView, 0, len(g.names))
	up := 0
	for _, n := range g.names {
		b := g.backends[n]
		ok := b.isUp()
		if ok {
			up++
		}
		views = append(views, nodeView{Backend: n, Up: ok})
	}
	status, code := "ok", http.StatusOK
	switch {
	case up == 0:
		status, code = "down", http.StatusServiceUnavailable
	case up < len(g.names):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"role":          "gateway",
		"optionsHash":   g.baseKey,
		"uptimeSeconds": int64(time.Since(g.start).Seconds()),
		"backendsUp":    up,
		"backends":      views,
	})
}

// ---------------------------------------------------------------------
// Routed proxying with failover.

// errAllBackendsDown distinguishes "nothing to try" from a last
// transport error.
var errAllBackendsDown = errors.New("gateway: no live backend for key")

// proxyResult is one successful backend exchange.
type proxyResult struct {
	resp    *http.Response
	backend *backend
}

// dispatch routes one buffered request by key down the key's ring
// order; see dispatchTo.
func (g *Gateway) dispatch(ctx context.Context, key, method, path, query string, body []byte, hdr http.Header) (proxyResult, error) {
	return g.dispatchTo(ctx, g.ring.Candidates(key, g.ring.Len()), method, path, query, body, hdr)
}

// dispatchTo sends one buffered request down a candidate order whose
// head is the intended node: the key's ring owner, or the node a sweep
// assigned the cell (sweepOrders). It walks the live candidates,
// retrying transport errors and gateway-class 5xx (502/503/504) with the
// daemon's jittered exponential backoff, and returns the first
// conclusive response. 429 is conclusive by design: the backend is
// telling the fleet to shed load, so the gateway propagates Retry-After
// instead of retrying hot. An answer from the intended node is an
// affinity hit.
func (g *Gateway) dispatchTo(ctx context.Context, cands []string, method, path, query string, body []byte, hdr http.Header) (proxyResult, error) {
	primaryName := ""
	if len(cands) > 0 {
		primaryName = cands[0]
	}
	order := g.alive(cands)
	if len(order) == 0 {
		return proxyResult{}, errAllBackendsDown
	}
	attempts := g.cfg.MaxRetries + 1
	if attempts > len(order) {
		attempts = len(order)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		b := order[i]
		if i > 0 {
			g.reg.Counter("pac_gw_retries_total",
				"Routed requests retried on a failover backend.").Inc()
			if err := g.backoff(ctx, i-1); err != nil {
				return proxyResult{}, err
			}
		}
		resp, err := g.forward(ctx, b, method, path, query, body, hdr)
		if err != nil {
			if ctx.Err() != nil {
				return proxyResult{}, ctx.Err()
			}
			g.noteFailure(b)
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			g.noteFailure(b)
			lastErr = fmt.Errorf("gateway: backend %s answered %d", b.name, resp.StatusCode)
			continue
		}
		g.noteSuccessFast(b)
		if b.name == primaryName {
			g.affHits.Inc()
		} else {
			g.affMisses.Inc()
		}
		g.reg.Counter("pac_gw_requests_total", "Requests proxied, by backend and status.",
			"backend", b.name, "code", fmt.Sprint(resp.StatusCode)).Inc()
		return proxyResult{resp: resp, backend: b}, nil
	}
	if lastErr == nil {
		lastErr = errAllBackendsDown
	}
	return proxyResult{}, lastErr
}

// noteSuccessFast resets the failure streak on proxy success without
// the recovery hysteresis (an ejected backend still waits for probes).
func (g *Gateway) noteSuccessFast(b *backend) {
	b.mu.Lock()
	b.consecFail = 0
	b.mu.Unlock()
}

// retryableStatus marks gateway-class backend failures worth a failover:
// the request never ran (bad gateway, draining, upstream timeout).
// Application statuses — including 429 backpressure — are final.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// backoff sleeps the daemon's jittered exponential delay (base<<attempt
// capped at 2s, uniform jitter over [d/2, d]) or returns early when ctx
// ends.
func (g *Gateway) backoff(ctx context.Context, attempt int) error {
	d := g.cfg.RetryBase << uint(attempt)
	if max := 2 * time.Second; d > max || d <= 0 {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// forward performs one backend exchange.
func (g *Gateway) forward(ctx context.Context, b *backend, method, path, query string, body []byte, hdr http.Header) (*http.Response, error) {
	url := b.name + path
	if query != "" {
		url += "?" + query
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(server.ForwardedByHeader, "pacgw")
	return g.cfg.Client.Do(req)
}

// relay copies a backend response to the client. Event streams are
// flushed after every read so SSE survives the hop live; any other body
// is copied whole before the server flushes it, so a small JSON reply
// leaves in as few writes as the response buffer allows.
func (g *Gateway) relay(w http.ResponseWriter, res proxyResult) {
	defer res.resp.Body.Close()
	h := w.Header()
	for k, vs := range res.resp.Header {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade":
			continue
		}
		h[k] = vs
	}
	h.Set("X-Pac-Backend", res.backend.name)
	w.WriteHeader(res.resp.StatusCode)
	stream := strings.HasPrefix(res.resp.Header.Get("Content-Type"), "text/event-stream")
	relayCopy(w, res.resp.Body, stream)
}

// relayBufs recycles relay copy buffers across responses.
var relayBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// relayCopy streams src to dst through a pooled buffer. With flush set
// the headers are flushed at once and every read after them.
func relayCopy(dst http.ResponseWriter, src io.Reader, flush bool) {
	bp := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(bp)
	f, _ := dst.(http.Flusher)
	if !flush || f == nil {
		io.CopyBuffer(dst, src, *bp)
		return
	}
	f.Flush() // the status line and headers go out before the first event
	buf := *bp
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			f.Flush()
		}
		if err != nil {
			return
		}
	}
}

// respondDispatchError maps routing failures onto client statuses.
func (g *Gateway) respondDispatchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errAllBackendsDown):
		g.reg.Counter("pac_gw_no_backend_total",
			"Requests dropped because no live backend could serve the key.").Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no live backend available")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err.Error())
	default:
		writeError(w, http.StatusBadGateway, err.Error())
	}
}

// readBody buffers a request body for routing and retries, answering
// false (and the response) when it exceeds the cap.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

// ---------------------------------------------------------------------
// Endpoint handlers.

// simKeyFor resolves a simulate body to its canonical routing key — the
// exact SimKey the chosen backend's store derives.
func (g *Gateway) simKeyFor(body []byte) (string, error) {
	var req server.SimulateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", fmt.Errorf("bad request body: %w", err)
	}
	opts, bench, m, err := server.ResolveSimulate(g.base, req)
	if err != nil {
		return "", err
	}
	return server.SimKey(server.OptionsHash(opts), bench, m), nil
}

func (g *Gateway) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	key, err := g.simKeyFor(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, derr := g.dispatch(r.Context(), key, http.MethodPost, "/v1/simulate",
		r.URL.RawQuery, body, r.Header)
	if derr != nil {
		g.respondDispatchError(w, derr)
		return
	}
	res.resp.Header.Set("X-Pac-Key", key)
	g.relay(w, res)
}

func (g *Gateway) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Experiments run inside the backend's base-options session; keying
	// by (base options hash, experiment id) pins each artefact to one
	// shard so its repeated runs find that session's memo warm, while
	// different artefacts spread across the fleet.
	key := g.baseKey + "/experiment/" + id
	res, err := g.dispatch(r.Context(), key, http.MethodPost,
		"/v1/experiments/"+id+"/run", r.URL.RawQuery, nil, r.Header)
	if err != nil {
		g.respondDispatchError(w, err)
		return
	}
	g.relay(w, res)
}

func (g *Gateway) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	// The catalogue is identical fleet-wide; serve it from the base
	// key's owner so the answer is stable, falling over like any route.
	res, err := g.dispatch(r.Context(), g.baseKey+"/experiments", http.MethodGet,
		"/v1/experiments", r.URL.RawQuery, nil, r.Header)
	if err != nil {
		g.respondDispatchError(w, err)
		return
	}
	g.relay(w, res)
}

// handleListJobs merges every live backend's job list, attributing each
// job to its node. The query (?state=) goes to every backend; a backend
// that refuses it with 400 refuses it for the whole fleet, so that answer
// is relayed instead of a merged list.
func (g *Gateway) handleListJobs(w http.ResponseWriter, r *http.Request) {
	merged := []json.RawMessage{}
	for _, name := range g.names {
		b := g.backends[name]
		if !b.isUp() {
			continue
		}
		resp, err := g.forward(r.Context(), b, http.MethodGet, "/v1/jobs", r.URL.RawQuery, nil, r.Header)
		if err != nil {
			g.noteFailure(b)
			continue
		}
		if resp.StatusCode == http.StatusBadRequest {
			g.relay(w, proxyResult{resp: resp, backend: b})
			return
		}
		var payload struct {
			Jobs []map[string]any `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		for _, j := range payload.Jobs {
			if _, ok := j["node"]; !ok {
				j["node"] = b.name
			}
			raw, err := json.Marshal(j)
			if err == nil {
				merged = append(merged, raw)
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": merged})
}

// handleJob serves GET/DELETE /v1/jobs/{id} and the SSE events stream.
// Job IDs are backend-local, so the gateway locates the owner by asking
// every live backend (fleet sizes are small; the probe is one cheap GET
// each) and then forwards the real request there.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path := "/v1/jobs/" + id
	if strings.HasSuffix(r.URL.Path, "/events") {
		path += "/events"
	}
	owner := g.findJobOwner(r.Context(), id)
	if owner == nil {
		writeError(w, http.StatusNotFound, "no such job on any live backend")
		return
	}
	resp, err := g.forward(r.Context(), owner, r.Method, path, r.URL.RawQuery, nil, r.Header)
	if err != nil {
		g.noteFailure(owner)
		g.respondDispatchError(w, err)
		return
	}
	g.relay(w, proxyResult{resp: resp, backend: owner})
}

// findJobOwner locates the backend holding a job ID.
func (g *Gateway) findJobOwner(ctx context.Context, id string) *backend {
	for _, name := range g.names {
		b := g.backends[name]
		if !b.isUp() {
			continue
		}
		resp, err := g.forward(ctx, b, http.MethodGet, "/v1/jobs/"+id, "", nil, nil)
		if err != nil {
			g.noteFailure(b)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return b
		}
	}
	return nil
}
