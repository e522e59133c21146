package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/report"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/workload"
)

// Request bounds: a resident daemon must not let one query monopolise
// memory or CPU for hours.
const (
	maxCores    = 128
	maxAccesses = 10_000_000
	maxScale    = 100.0
)

// sessionPool is the LRU-capped pool of shared experiments.Session
// result caches, keyed by the canonical hash of their (normalized)
// options. Every session shares the server's telemetry hooks and
// broadcasts its progress lines to the running jobs.
type sessionPool struct {
	mu       sync.Mutex
	cap      int
	seq      int64
	hooks    *telemetry.Hooks
	progress func(string)
	// ckptPolicy, when non-nil, builds the crash-recovery checkpoint
	// policy each new session is created with (keyed by the session's
	// canonical options hash); nil keeps sessions checkpoint-free.
	ckptPolicy func(optsKey string) *experiments.CheckpointPolicy
	// scratches is the daemon-wide shape-aware arena pool every session
	// shares: parked machines survive session LRU eviction, so a hot
	// shape stays warm even as its session churns in and out of the
	// pool.
	scratches *experiments.ScratchPool
	entries   map[string]*poolEntry
}

type poolEntry struct {
	sess    *experiments.Session
	lastUse int64
}

func newSessionPool(cap int, hooks *telemetry.Hooks, progress func(string),
	ckptPolicy func(optsKey string) *experiments.CheckpointPolicy,
	scratches *experiments.ScratchPool) *sessionPool {
	return &sessionPool{
		cap:        cap,
		hooks:      hooks,
		progress:   progress,
		ckptPolicy: ckptPolicy,
		scratches:  scratches,
		entries:    make(map[string]*poolEntry),
	}
}

// session finds or creates the session for the given fully-specified
// options, returning it with its canonical options hash. The least
// recently used session is evicted beyond the cap; in-flight jobs keep
// their own reference, so eviction only drops the pool's cache.
func (p *sessionPool) session(opts experiments.Options) (*experiments.Session, string) {
	key := optionsHash(opts)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	if e, ok := p.entries[key]; ok {
		e.lastUse = p.seq
		return e.sess, key
	}
	sess := experiments.NewSession(opts)
	sess.Hooks = p.hooks
	sess.Progress = p.progress
	sess.Scratches = p.scratches
	if p.ckptPolicy != nil {
		sess.Checkpoints = p.ckptPolicy(key)
	}
	p.entries[key] = &poolEntry{sess: sess, lastUse: p.seq}
	for len(p.entries) > p.cap {
		oldestKey, oldest := "", int64(1<<62)
		for k, e := range p.entries {
			if e.lastUse < oldest {
				oldestKey, oldest = k, e.lastUse
			}
		}
		delete(p.entries, oldestKey)
	}
	return sess, key
}

// OptionsHash is the canonical hash of fully-specified options: the
// SHA-256 of their fixed-order JSON encoding, truncated for readability.
// Two requests normalising to the same options share a session (and
// therefore a result cache). The gateway uses the same hash as its
// consistent-hash shard key, so cache affinity survives fan-out across a
// pacd fleet.
func OptionsHash(o experiments.Options) string {
	o.Parallel = 0 // worker count never changes results
	b, _ := json.Marshal(o)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// optionsHash keeps the package-internal call sites short.
func optionsHash(o experiments.Options) string { return OptionsHash(o) }

// SimKey keys one simulate request: options hash + benchmark + mode. It
// identifies exactly one memo slot of one session, which makes it the
// finest-grained routing key a gateway can use without losing
// session-cache affinity.
func SimKey(optsKey, bench string, mode coalesce.Mode) string {
	sum := sha256.Sum256([]byte(optsKey + "/" + bench + "/" + mode.String()))
	return hex.EncodeToString(sum[:8])
}

// configHash keeps the package-internal call sites short.
func configHash(optsKey, bench string, mode coalesce.Mode) string {
	return SimKey(optsKey, bench, mode)
}

// SimulateRequest is the body of POST /v1/simulate. Zero-valued fields
// inherit the daemon's base options.
type SimulateRequest struct {
	Benchmark       string  `json:"benchmark"`
	Mode            string  `json:"mode"`
	Cores           int     `json:"cores"`
	AccessesPerCore int     `json:"accessesPerCore"`
	Scale           float64 `json:"scale"`
	Seed            uint64  `json:"seed"`
	L1Bytes         int     `json:"l1Bytes"`
	LLCBytes        int     `json:"llcBytes"`

	// Fault-plan knobs (all zero: no injection). They mirror
	// fault.Config and share its validation, so a malformed plan is a
	// 400 at submit time, not a failed job.
	FaultLinkCRCRate        float64 `json:"faultLinkCrcRate"`
	FaultPoisonRate         float64 `json:"faultPoisonRate"`
	FaultVaultStallInterval int64   `json:"faultVaultStallInterval"`
	FaultVaultStallCycles   int64   `json:"faultVaultStallCycles"`
	FaultMaxReissues        int     `json:"faultMaxReissues"`
	FaultSeed               uint64  `json:"faultSeed"`
}

// faultPlan assembles the request's fault.Config.
func (r SimulateRequest) faultPlan() fault.Config {
	return fault.Config{
		LinkCRCRate:        r.FaultLinkCRCRate,
		PoisonRate:         r.FaultPoisonRate,
		VaultStallInterval: r.FaultVaultStallInterval,
		VaultStallCycles:   r.FaultVaultStallCycles,
		MaxReissues:        r.FaultMaxReissues,
		Seed:               r.FaultSeed,
	}
}

// SimulateResult is the payload of a finished simulate job. Result uses
// the same stats JSON encoding as `pacsim -bench -json`.
type SimulateResult struct {
	Benchmark  string `json:"benchmark"`
	Mode       string `json:"mode"`
	ConfigHash string `json:"configHash"`
	// Cached reports whether the result was served without running a new
	// simulation (from the memo, the durable store, or a fleet peer).
	Cached bool `json:"cached"`
	// Cache names the source the result came from: memo|disk|peer|miss.
	// The same value rides the X-Pac-Cache header on synchronous
	// responses.
	Cache  string `json:"cache"`
	Result any    `json:"result"`
}

// ExperimentResult is the payload of a finished experiment job.
type ExperimentResult struct {
	ID       string          `json:"id"`
	Artefact string          `json:"artefact"`
	Tables   []*report.Table `json:"tables"`
	Text     string          `json:"text"`
}

// validate resolves the request against the server's base options,
// returning the normalized options, benchmark, and mode.
func (s *Server) validate(req SimulateRequest) (experiments.Options, string, coalesce.Mode, error) {
	return ResolveSimulate(s.defaultOptions(), req)
}

// ResolveSimulate validates req and resolves it against base (a
// fully-specified default option set, typically Server.defaultOptions or
// the gateway's fleet-wide base), returning the normalized options the
// request will run under, the benchmark, and the mode. Both the daemon
// and the gateway resolve requests through this one function, so a
// gateway computing OptionsHash/SimKey from the result derives exactly
// the key the backend's session pool will use — the property the
// consistent-hash routing relies on.
func ResolveSimulate(base experiments.Options, req SimulateRequest) (experiments.Options, string, coalesce.Mode, error) {
	if req.Benchmark == "" {
		return experiments.Options{}, "", 0, fmt.Errorf("benchmark is required (one of %s)",
			strings.Join(workload.Names(), ", "))
	}
	found := false
	for _, n := range workload.Names() {
		if n == req.Benchmark {
			found = true
			break
		}
	}
	if !found {
		return experiments.Options{}, "", 0, fmt.Errorf("unknown benchmark %q (one of %s)",
			req.Benchmark, strings.Join(workload.Names(), ", "))
	}
	if req.Mode == "" {
		req.Mode = "pac"
	}
	mode, ok := coalesce.ParseMode(req.Mode)
	if !ok {
		return experiments.Options{}, "", 0, fmt.Errorf("unknown mode %q (none, dmc, pac, sortnet, rowbuf)", req.Mode)
	}
	switch {
	case req.Cores < 0 || req.Cores > maxCores:
		return experiments.Options{}, "", 0, fmt.Errorf("cores %d out of range [1, %d]", req.Cores, maxCores)
	case req.AccessesPerCore < 0 || req.AccessesPerCore > maxAccesses:
		return experiments.Options{}, "", 0, fmt.Errorf("accessesPerCore %d out of range [1, %d]", req.AccessesPerCore, maxAccesses)
	case req.Scale < 0 || req.Scale > maxScale:
		return experiments.Options{}, "", 0, fmt.Errorf("scale %v out of range (0, %v]", req.Scale, maxScale)
	}
	opts := base
	if req.Cores > 0 {
		opts.Cores = req.Cores
	}
	if req.AccessesPerCore > 0 {
		opts.AccessesPerCore = req.AccessesPerCore
	}
	if req.Scale > 0 {
		opts.Scale = req.Scale
	}
	if req.Seed != 0 {
		opts.Seed = req.Seed
	}
	if req.L1Bytes > 0 {
		opts.L1Bytes = req.L1Bytes
	}
	if req.LLCBytes > 0 {
		opts.LLCBytes = req.LLCBytes
	}
	plan := req.faultPlan()
	if err := plan.Validate(); err != nil {
		return experiments.Options{}, "", 0, err
	}
	opts.Faults = plan
	return experiments.NewSession(opts).Options(), req.Benchmark, mode, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	sj, err := s.buildSimulateRun(req, peerList(s.cfg.Peers, r.Header.Get(PeersHeader)))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A memo or local-store hit is answered here, registered as a job that
	// is already done; only a miss pays for a queue slot, a worker handoff
	// and the journal.
	var job *Job
	if ans, ok := sj.local(true); ok {
		job, err = s.jobs.completed("simulate", sj.payload, ans)
	} else {
		job, err = s.jobs.submit("simulate", sj.payload, sj.meta(), sj.run)
	}
	if !s.submitted(w, job, err) {
		return
	}
	s.respondSimulate(w, r, job)
}

// simulateAnswer is a finished simulate job's answer: the SimulateResult
// fields, and the result as the memo or the store keeps it — the compact
// json.Marshal of the *sim.Result. Replies are assembled around those
// bytes; the result is never marshalled again.
type simulateAnswer struct {
	head   SimulateResult // Result unset
	result []byte
}

// newSimulateAnswer records where an answer came from around its stored
// result bytes.
func newSimulateAnswer(bench string, mode coalesce.Mode, hash, source string, result []byte) *simulateAnswer {
	return &simulateAnswer{
		head: SimulateResult{
			Benchmark:  bench,
			Mode:       mode.String(),
			ConfigHash: hash,
			Cached:     source != CacheMiss,
			Cache:      source,
		},
		result: result,
	}
}

// compact renders the SimulateResult JSON: the same bytes as json.Marshal
// of a SimulateResult carrying the result.
func (a *simulateAnswer) compact() []byte {
	head, _ := json.Marshal(a.head) // strings and a bool cannot fail
	// head ends in the unset Result's null}: the bytes go there.
	head = head[:len(head)-len("null}")]
	out := make([]byte, 0, len(head)+len(a.result)+1)
	return append(append(append(out, head...), a.result...), '}')
}

// simulateJob is one resolved simulate request.
type simulateJob struct {
	// payload is the canonical WAL payload: the request's JSON encoding.
	// Resolution against the base options is deterministic, so replaying
	// it after a crash reproduces the original job exactly.
	payload []byte
	// meta computes the job's scheduling meta (machine-shape affinity
	// key, bench/mode pprof labels). Only a job that enters the queue
	// reads it, so an inline hit never pays for the shape hash.
	meta func() jobMeta
	// local answers from this node alone — the session memo, then the
	// local store — and never simulates or blocks. With resident set it
	// reads the store only for a key the store holds, so the handler's
	// probe leaves a miss to be counted once, by the job that resolves it.
	local func(resident bool) (*simulateAnswer, bool)
	// run is the job closure: local, then fleet peers, then a fresh
	// simulation.
	run func(ctx context.Context) (any, error)
}

// buildSimulateRun resolves a simulate request — validation, session,
// SimKey and payload, each exactly once — into its resolution chain. The
// HTTP handler and the boot replay share this one path.
func (s *Server) buildSimulateRun(req SimulateRequest, peers []string) (simulateJob, error) {
	opts, bench, mode, err := s.validate(req)
	if err != nil {
		return simulateJob{}, err
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return simulateJob{}, err
	}
	sess, optsKey := s.pool.session(opts)
	hash := configHash(optsKey, bench, mode)
	answer := func(source string, result []byte) *simulateAnswer {
		return newSimulateAnswer(bench, mode, hash, source, result)
	}
	// Resolve the cache source cheapest-first: session memo, local
	// durable store, fleet peers, then a fresh simulation. Every source
	// answers with stored bytes: the memo entry's rendering of its result,
	// or the store entry's answer section, so a hit decodes and marshals
	// nothing. A disk hit does not seed the memo — answering from disk
	// again costs about what a memo hit does. Peer hits are seeded, and
	// concurrent misses for the same key still share one run: Seed is a
	// no-op against an in-flight entry and Result joins it. This layering
	// also makes WAL replay effectively exactly-once: a job that finished
	// between its terminal record being lost and the crash re-runs as a
	// memo/disk hit, not a second simulation.
	local := func(resident bool) (*simulateAnswer, bool) {
		if res, js, ok := sess.Lookup(bench, mode); ok {
			s.storeWrite(hash, optsKey, bench, mode, opts, res, js)
			return answer(CacheMemo, js), true
		}
		if resident && (s.store == nil || !s.store.Has(hash)) {
			return nil, false
		}
		a, ok := s.storeLookup(hash, optsKey, bench, mode)
		if !ok {
			return nil, false
		}
		return answer(CacheDisk, a.JSON), true
	}
	run := func(ctx context.Context) (any, error) {
		if ans, ok := local(false); ok {
			return ans, nil
		}
		source := CacheMiss
		if v, ok := s.peerLookup(ctx, peers, hash, optsKey, bench, mode); ok {
			sess.Seed(bench, mode, v.Entry.Result, v.Answer)
			source = CachePeer
		}
		res, js, err := sess.ResultJSON(ctx, bench, mode)
		if err != nil {
			return nil, err
		}
		s.storeWrite(hash, optsKey, bench, mode, opts, res, js)
		return answer(source, js), nil
	}
	// Affinity is the machine-shape key, not the SimKey: two requests
	// with different options can still share a shape, and fault-plan
	// requests (shape "") opt out — they bypass the machine cache anyway.
	meta := func() jobMeta {
		return jobMeta{affinity: sess.Shape(bench, mode), bench: bench, mode: mode.String()}
	}
	return simulateJob{payload: payload, meta: meta, local: local, run: run}, nil
}

// respondSimulate is respondJob plus the X-Pac-Cache header: when the
// job completed inside the wait window, the cache source recorded on it
// is surfaced for operators (and propagated verbatim by the gateway's
// relay).
func (s *Server) respondSimulate(w http.ResponseWriter, r *http.Request, job *Job) {
	wait, err := waitWindow(r, s.cfg.RequestTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if wait > 0 && s.await(r.Context(), job, wait) {
		v, ans := job.snapshot(true)
		if ans == nil {
			writeJSON(w, http.StatusOK, v)
			return
		}
		w.Header().Set(CacheHeader, ans.head.Cache)
		writeAnswerView(w, http.StatusOK, v, ans)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, job.view(false))
}

func (s *Server) handleListExperiments(w http.ResponseWriter, _ *http.Request) {
	type expView struct {
		ID       string `json:"id"`
		Artefact string `json:"artefact"`
		Desc     string `json:"desc"`
	}
	var out []expView
	for _, e := range experiments.All() {
		out = append(out, expView{e.ID, e.Artefact, e.Desc})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

func (s *Server) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := experiments.ByID(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q (GET /v1/experiments lists them)", id))
		return
	}
	run, payload, err := s.buildExperimentRun(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Experiments span many shapes, so they carry no affinity key.
	job, err := s.jobs.submit("experiment", payload, jobMeta{}, run)
	if !s.submitted(w, job, err) {
		return
	}
	s.respondJob(w, r, job)
}

// experimentRequest is the WAL payload of an experiment job.
type experimentRequest struct {
	ID string `json:"id"`
}

// buildExperimentRun resolves an experiment ID into its job closure plus
// the canonical WAL payload; shared by the HTTP handler and boot replay.
func (s *Server) buildExperimentRun(id string) (func(ctx context.Context) (any, error), []byte, error) {
	exp, ok := experiments.ByID(id)
	if !ok {
		return nil, nil, fmt.Errorf("unknown experiment %q", id)
	}
	payload, err := json.Marshal(experimentRequest{ID: id})
	if err != nil {
		return nil, nil, err
	}
	sess, _ := s.pool.session(s.defaultOptions())
	parallel := s.cfg.Parallel
	run := func(ctx context.Context) (any, error) {
		// Precompute executes every declared simulation under ctx on the
		// worker pool; rendering afterwards is pure memo lookup.
		if err := sess.Precompute(ctx, parallel, id); err != nil {
			return nil, err
		}
		tables, err := exp.Run(sess)
		if err != nil {
			return nil, err
		}
		var text strings.Builder
		for _, t := range tables {
			if err := t.WriteText(&text); err != nil {
				return nil, err
			}
			text.WriteByte('\n')
		}
		return ExperimentResult{ID: exp.ID, Artefact: exp.Artefact, Tables: tables, Text: text.String()}, nil
	}
	return run, payload, nil
}

// submitted maps submit errors to 429/503; it reports whether the job
// was accepted.
func (s *Server) submitted(w http.ResponseWriter, job *Job, err error) bool {
	switch err {
	case nil:
		return true
	case errBusy:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full, retry later")
	case errDraining:
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
	return false
}

// respondJob answers a submission: 202 with the job view, or — when the
// request carries ?wait= — the terminal view once the job finishes
// within the window (200), falling back to 202 with the current state.
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, job *Job) {
	wait, err := waitWindow(r, s.cfg.RequestTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if wait > 0 && s.await(r.Context(), job, wait) {
		writeJSON(w, http.StatusOK, job.view(true))
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, job.view(false))
}

// waitWindow parses ?wait= (a Go duration such as "30s", or a plain
// number of seconds), capped by the server's request timeout.
func waitWindow(r *http.Request, cap time.Duration) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		var secs float64
		if _, serr := fmt.Sscanf(raw, "%f", &secs); serr != nil {
			return 0, fmt.Errorf("bad wait %q: %v", raw, err)
		}
		d = time.Duration(secs * float64(time.Second))
	}
	if d < 0 {
		return 0, fmt.Errorf("bad wait %q: negative", raw)
	}
	if d > cap {
		d = cap
	}
	return d, nil
}

// await blocks until the job finishes, the window closes, or the client
// disconnects; it reports whether the job reached a terminal state.
func (s *Server) await(ctx context.Context, job *Job, window time.Duration) bool {
	timer := time.NewTimer(window)
	defer timer.Stop()
	select {
	case <-job.Done():
		return true
	case <-timer.C:
	case <-ctx.Done():
	}
	return job.Status().terminal()
}

// handleListJobs lists retained jobs, optionally filtered by ?state=.
// Besides the five job statuses, state=orphaned selects WAL-recovered
// jobs that have not yet finished — the reconciliation set a gateway
// re-dispatches after a worker restart; those views carry the journaled
// request body so the redispatch is verbatim.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	views := []jobView{}
	for _, j := range s.jobs.list() {
		switch state {
		case "":
			views = append(views, j.view(false))
		case "orphaned":
			if j.isOrphaned() {
				views = append(views, j.view(true))
			}
		default:
			if string(j.Status()) == state {
				views = append(views, j.view(false))
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	wait, err := waitWindow(r, s.cfg.RequestTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if wait > 0 {
		s.await(r.Context(), job, wait)
	}
	writeJSON(w, http.StatusOK, job.view(true))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.jobs.cancelJob(job)
	writeJSON(w, http.StatusOK, job.view(false))
}

// handleJobEvents streams job progress as Server-Sent Events: one
// "progress" event per line (each carrying a monotonic event ID), then
// a single "done" event with the job's terminal view. A reconnecting
// client sends the standard Last-Event-ID header (or ?lastEventId=) and
// resumes exactly where its severed stream stopped — retention permits
// replaying only the most recent maxProgressLines, so a very stale
// cursor resumes from the oldest retained line.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	after := 0
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("lastEventId")
	}
	if n, err := strconv.Atoi(lastID); err == nil && n > 0 {
		after = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	lines, unsubscribe := job.subscribe(after)
	defer unsubscribe()
	// keepAlive ticks whenever the stream has been idle for the
	// configured interval; the comment line keeps proxies and LBs from
	// severing a long-running job's connection. A nil channel (interval
	// disabled) never fires.
	var keepAlive <-chan time.Time
	if s.cfg.SSEKeepAlive > 0 {
		ticker := time.NewTicker(s.cfg.SSEKeepAlive)
		defer ticker.Stop()
		keepAlive = ticker.C
	}
	for {
		select {
		case ev, open := <-lines:
			if !open {
				// Terminal: emit the final state and end the stream.
				payload, _ := json.Marshal(job.view(true))
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", payload)
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: progress\ndata: %s\n\n", ev.ID, sseEscape(ev.Line))
			flusher.Flush()
		case <-keepAlive:
			fmt.Fprint(w, ": keep-alive\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// sseEscape keeps multi-line progress payloads inside one data field.
func sseEscape(line string) string {
	return strings.ReplaceAll(line, "\n", " ")
}
