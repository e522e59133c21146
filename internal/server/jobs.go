package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// terminal reports whether the status is final.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// errBusy is returned by submit when the bounded queue is full; the API
// layer maps it to 429 + Retry-After.
var errBusy = errors.New("server: job queue full")

// errDraining is returned after drain started; the API maps it to 503.
var errDraining = errors.New("server: draining, not accepting jobs")

// maxProgressLines bounds per-job progress retention; older lines are
// dropped from the front (SSE subscribers still see every line live).
const maxProgressLines = 256

// jobMeta carries a job's profiling attributes: bench and mode feed the
// pprof labels on the executing goroutine.
type jobMeta struct {
	bench string
	mode  string
}

// Job is one queued unit of work: a simulation or an experiment run.
type Job struct {
	id   string
	kind string
	// node is the owning daemon's NodeID ("" outside a fleet); surfaced
	// in job views so gateway-merged listings attribute jobs to shards.
	node string
	// meta tags the job for pprof attribution; immutable after submit.
	meta jobMeta

	// run is the job body; the worker takes it under mu when it marks
	// the job running, and finish clears it, so a retained terminal job
	// keeps nothing the closure captured (a session, its results).
	run func(ctx context.Context) (any, error)

	// recovered marks a job re-enqueued from the WAL at boot replay; it
	// runs under its original ID.
	recovered bool

	mu     sync.Mutex
	status Status
	err    string
	result json.RawMessage
	// answer is a done simulate job's answer, in place of result (nil
	// for other kinds and for jobs that did not succeed). A retained job
	// keeps only the stored bytes, often shared with the store; views
	// render the SimulateResult JSON around them when asked.
	answer   *simulateAnswer
	progress []string
	dropped  int // progress lines evicted by the retention cap
	subs     []chan progressEvent
	done     chan struct{}
	cancel   context.CancelFunc // cancels the running job's context
	created  time.Time
	started  time.Time
	finished time.Time
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// progressEvent is one progress line with its absolute 1-based sequence
// number. IDs survive retention trims (id = dropped + slice position),
// so an SSE client can resume a severed stream with Last-Event-ID and
// receive exactly the lines it missed.
type progressEvent struct {
	ID   int
	Line string
}

// addProgress appends one progress line and fans it out to subscribers.
func (j *Job) addProgress(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.progress = append(j.progress, line)
	ev := progressEvent{ID: j.dropped + len(j.progress), Line: line}
	if len(j.progress) > maxProgressLines {
		j.dropped += len(j.progress) - maxProgressLines
		j.progress = j.progress[len(j.progress)-maxProgressLines:]
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than block the job
		}
	}
}

// subscribe registers a progress listener, replaying the retained lines
// with IDs greater than after (0 replays everything retained); the
// channel is closed when the job finishes. The returned cancel must be
// called when the listener leaves.
func (j *Job) subscribe(after int) (<-chan progressEvent, func()) {
	ch := make(chan progressEvent, maxProgressLines)
	j.mu.Lock()
	var replay []progressEvent
	for i, line := range j.progress {
		if id := j.dropped + i + 1; id > after {
			replay = append(replay, progressEvent{ID: id, Line: line})
		}
	}
	closed := j.status.terminal()
	if !closed {
		j.subs = append(j.subs, ch)
	}
	j.mu.Unlock()
	for _, ev := range replay {
		ch <- ev
	}
	if closed {
		close(ch)
		return ch, func() {}
	}
	return ch, func() {
		j.mu.Lock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
}

// finish moves the job to a terminal state, closing done and every
// subscriber channel. ans is a done simulate job's answer (nil
// otherwise).
func (j *Job) finish(status Status, result json.RawMessage, ans *simulateAnswer, err error) {
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.result = result
	j.answer = ans
	j.run, j.cancel = nil, nil
	if err != nil {
		j.err = err.Error()
	}
	j.finished = time.Now()
	subs := j.subs
	j.subs = nil
	close(j.done)
	j.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// jobView is the JSON representation of a job.
type jobView struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Node     string          `json:"node,omitempty"`
	Status   Status          `json:"status"`
	Error    string          `json:"error,omitempty"`
	Progress []string        `json:"progress,omitempty"`
	Dropped  int             `json:"progressDropped,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	// Recovered marks a job the WAL re-enqueued at boot under its
	// original ID.
	Recovered  bool       `json:"recovered,omitempty"`
	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// view snapshots the job; withResult controls whether the (potentially
// large) result payload is included.
func (j *Job) view(withResult bool) jobView {
	v, ans := j.snapshot(withResult)
	if ans != nil {
		v.Result = ans.compact()
	}
	return v
}

// snapshot is view without rendering a simulate answer: with
// withResult, a done simulate job's answer is returned for the caller to
// write, and the view's Result is left empty.
func (j *Job) snapshot(withResult bool) (jobView, *simulateAnswer) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		Kind:      j.kind,
		Node:      j.node,
		Status:    j.status,
		Error:     j.err,
		Progress:  append([]string(nil), j.progress...),
		Dropped:   j.dropped,
		Recovered: j.recovered,
		CreatedAt: j.created,
	}
	var ans *simulateAnswer
	if withResult {
		v.Result, ans = j.result, j.answer
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v, ans
}

// jobManager owns the bounded queue, the worker pool, and the job store.
type jobManager struct {
	hooks      *telemetry.Hooks
	reg        *telemetry.Registry
	jobTimeout time.Duration
	retain     int
	node       string // owning daemon's NodeID, stamped onto every job
	// wal, when set, journals every job submit accepts before it is
	// exposed and retires it with a terminal record, so a crashed
	// daemon's boot replay can re-enqueue unfinished work under its
	// original IDs. Jobs registered by completed are done at acceptance
	// and never touch it.
	wal *wal.Log

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *Job
	// resubMu serializes resubmit's blocking queue sends against drain's
	// queue close: resubmit holds the read side across its send, drain
	// takes the write side before closing, so a boot replay racing a
	// shutdown can never send on a closed channel.
	resubMu sync.RWMutex
	wg      sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job
	// order is submission order, for listing; it may still hold IDs of
	// evicted jobs until evictLocked compacts it.
	order []string
	// finishedJobs[finishedHead:] are the retained terminal jobs in the
	// order they finished: the retention eviction queue.
	finishedJobs []*Job
	finishedHead int
	nextID       int
	accepting    bool
	closing      sync.Once
}

func newJobManager(workers, depth int, jobTimeout time.Duration, retain int,
	node string, journal *wal.Log, hooks *telemetry.Hooks, reg *telemetry.Registry) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &jobManager{
		hooks:      hooks,
		reg:        reg,
		jobTimeout: jobTimeout,
		retain:     retain,
		node:       node,
		wal:        journal,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, depth),
		jobs:       make(map[string]*Job),
		accepting:  true,
	}
	for i := 0; i < workers; i++ {
		commits := make(chan commit, 1)
		m.wg.Add(2)
		go m.worker(commits)
		go m.committer(commits)
	}
	return m
}

// submit enqueues a job that still has work to do; errBusy when the
// queue is full, errDraining after drain started. With a journal the
// submit record is fsynced before the job is acknowledged, so a crash
// after the acknowledgement replays it; a job already done at acceptance
// goes through completed instead. payload is the canonical request body
// journaled to the WAL; nil is fine for unjournaled managers. meta tags
// the job for pprof attribution.
func (m *jobManager) submit(kind string, payload []byte, meta jobMeta, run func(ctx context.Context) (any, error)) (*Job, error) {
	m.mu.Lock()
	if !m.accepting {
		m.mu.Unlock()
		return nil, errDraining
	}
	j := &Job{
		id:      m.newIDLocked(),
		kind:    kind,
		node:    m.node,
		meta:    meta,
		run:     run,
		status:  StatusQueued,
		done:    make(chan struct{}),
		created: time.Now(),
	}
	select {
	case m.queue <- j:
	default:
		m.nextID-- // reuse the ID; the job never existed
		m.mu.Unlock()
		m.reg.Counter("pac_jobs_rejected_total", "Jobs rejected with 429 on a full queue.").Inc()
		return nil, errBusy
	}
	if m.wal != nil {
		if err := m.wal.Submit(j.id, kind, payload); err != nil {
			// The job is already on the queue; poison it so the worker
			// skips it on pickup, and refuse the submission — a job the
			// journal cannot make durable is never acknowledged. The
			// journal counts the failure (pac_wal_journal_errors_total).
			m.mu.Unlock()
			j.finish(StatusFailed, nil, nil, err)
			return nil, fmt.Errorf("server: journaling job: %w", err)
		}
	}
	m.addLocked(j)
	m.mu.Unlock()
	m.noteSubmitted(kind)
	m.noteDepth()
	return j, nil
}

// completed registers a job that is already done at acceptance: a
// simulate answered from the store. It shares submit's ID counter and
// jobs table, so job lookups and /events work as for any finished job,
// and it counts as submitted and finished. It takes no queue slot,
// writes no WAL record and carries no scheduling meta: the journal
// recovers accepted work that has not finished, and this job finished
// before it was acknowledged. errDraining after drain started.
func (m *jobManager) completed(kind string, ans *simulateAnswer) (*Job, error) {
	now := time.Now()
	done := make(chan struct{})
	close(done)
	j := &Job{
		kind:     kind,
		node:     m.node,
		status:   StatusDone,
		answer:   ans,
		done:     done,
		created:  now,
		started:  now,
		finished: now,
	}
	m.mu.Lock()
	if !m.accepting {
		m.mu.Unlock()
		return nil, errDraining
	}
	j.id = m.newIDLocked()
	m.finishedJobs = append(m.finishedJobs, j)
	m.addLocked(j)
	m.mu.Unlock()
	m.noteSubmitted(kind)
	m.countFinished(kind, StatusDone)
	return j, nil
}

// newIDLocked takes the next job ID. Fleet daemons prefix their node
// name so job IDs are unique across a gateway's whole backend set,
// making gateway job lookups exact.
func (m *jobManager) newIDLocked() string {
	m.nextID++
	id := fmt.Sprintf("j%06d", m.nextID)
	if m.node != "" {
		id = m.node + "-" + id
	}
	return id
}

// addLocked enters an accepted job into the jobs table.
func (m *jobManager) addLocked(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
}

// noteSubmitted counts one accepted job.
func (m *jobManager) noteSubmitted(kind string) {
	m.reg.Counter("pac_jobs_submitted_total",
		"Jobs accepted, queued or answered already done.", "kind", kind).Inc()
}

// resubmit re-enqueues a journaled job under its original ID during
// boot replay: no new submit record is written (the journal already has
// one), the ID counter is fast-forwarded past the recovered ID, and the
// queue send blocks — the workers are live and draining, so recovery
// applies backpressure instead of dropping work. Returns nil when the
// manager is already draining.
func (m *jobManager) resubmit(id, kind string, meta jobMeta, run func(ctx context.Context) (any, error)) *Job {
	m.resubMu.RLock()
	defer m.resubMu.RUnlock()
	m.mu.Lock()
	if !m.accepting {
		m.mu.Unlock()
		return nil
	}
	if _, exists := m.jobs[id]; exists {
		m.mu.Unlock()
		return nil
	}
	m.bumpNextIDLocked(id)
	j := &Job{
		id:        id,
		kind:      kind,
		node:      m.node,
		meta:      meta,
		run:       run,
		recovered: true,
		status:    StatusQueued,
		done:      make(chan struct{}),
		created:   time.Now(),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.queue <- j
	m.reg.Counter("pac_jobs_recovered_total",
		"Journaled jobs re-enqueued under their original IDs at boot replay.", "kind", kind).Inc()
	m.noteDepth()
	return j
}

// bumpNextIDLocked fast-forwards the ID counter past a recovered job's
// ID, so post-recovery submissions never collide with replayed ones.
func (m *jobManager) bumpNextIDLocked(id string) {
	if m.node != "" {
		id = strings.TrimPrefix(id, m.node+"-")
	}
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > m.nextID {
		m.nextID = n
	}
}

// journal applies one WAL lifecycle append. Errors after acceptance are
// counted by the journal but never fail the job: once the submit record
// is durable the journal is an at-least-once floor, not a gate — a lost
// terminal record merely means one extra (store-deduplicated) replay next
// boot.
func (m *jobManager) journal(op func(id string) error, id string) {
	if m.wal == nil {
		return
	}
	_ = op(id) // counted in pac_wal_journal_errors_total
}

// evictLocked drops finished jobs beyond the retention cap, oldest
// finished first. It takes them from the queue of finished jobs, so a
// job that has not finished is never evicted, and the cost is O(1)
// amortized per accepted job: no scan of the table.
func (m *jobManager) evictLocked() {
	if m.retain <= 0 {
		return
	}
	for len(m.jobs) > m.retain && m.finishedHead < len(m.finishedJobs) {
		j := m.finishedJobs[m.finishedHead]
		m.finishedJobs[m.finishedHead] = nil
		m.finishedHead++
		if m.jobs[j.id] == j {
			delete(m.jobs, j.id)
		}
	}
	// Reclaim the consumed prefix of the finished queue, and the IDs of
	// evicted jobs in the listing order, once each is mostly garbage.
	if m.finishedHead > len(m.finishedJobs)/2 {
		n := copy(m.finishedJobs, m.finishedJobs[m.finishedHead:])
		clear(m.finishedJobs[n:])
		m.finishedJobs = m.finishedJobs[:n]
		m.finishedHead = 0
	}
	if len(m.order) > 2*len(m.jobs)+64 {
		kept := m.order[:0]
		for _, id := range m.order {
			if _, ok := m.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		clear(m.order[len(kept):])
		m.order = kept
	}
}

// get finds a job by ID.
func (m *jobManager) get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list snapshots every retained job in submission order.
func (m *jobManager) list() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// cancelJob aborts a queued or running job.
func (m *jobManager) cancelJob(j *Job) {
	j.mu.Lock()
	switch {
	case j.status == StatusQueued:
		// Finish directly; the worker skips terminal jobs on pickup.
		j.mu.Unlock()
		m.journalFinished(j.id, StatusCancelled)
		j.finish(StatusCancelled, nil, nil, context.Canceled)
		m.noteFinished(j, StatusCancelled)
		m.noteDepth()
		return
	case j.status == StatusRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return
	}
	j.mu.Unlock()
}

// commit is a job whose terminal status execute has decided, on its way
// from the worker to the worker's committer.
type commit struct {
	j       *Job
	status  Status
	payload json.RawMessage
	ans     *simulateAnswer
	err     error
}

// worker executes jobs in queue order until the queue closes. It hands
// each finished job to its committer and takes the next job at once;
// the hand-off holds one job, so the worker runs at most two jobs ahead
// of the committer. Closing commits on exit lets the committer drain.
func (m *jobManager) worker(commits chan<- commit) {
	defer m.wg.Done()
	defer close(commits)
	running := m.reg.Gauge("pac_jobs_running", "Jobs currently executing.")
	for j := range m.queue {
		m.noteDepth()
		j.mu.Lock()
		if j.status != StatusQueued {
			j.mu.Unlock()
			continue
		}
		j.status = StatusRunning
		j.started = time.Now()
		run := j.run
		j.mu.Unlock()
		commits <- m.execute(j, run, running)
	}
}

// committer makes one worker's finished jobs durable, in the order the
// worker finished them, and only then releases their waiters: first the
// simulate answer's store entry, then the fsynced terminal WAL record,
// then finish. A client that sees a terminal status therefore finds the
// result stored and the journal no longer holding the job live; until
// then the job reads as running.
func (m *jobManager) committer(commits <-chan commit) {
	defer m.wg.Done()
	for c := range commits {
		if c.ans != nil && c.ans.persist != nil {
			c.ans.persist()
			c.ans.persist = nil // the retained answer keeps only its bytes
		}
		m.journalFinished(c.j.id, c.status)
		c.j.finish(c.status, c.payload, c.ans, c.err)
		m.noteFinished(c.j, c.status)
	}
}

// execute runs one job once, under the wall-clock watchdog deadline
// (jobTimeout). A job still running at the deadline is cancelled
// through its context, counted in pac_job_watchdog_kills_total, and
// fails; so does a job whose run errs or panics. Nothing reruns it: a
// run is a deterministic function of its request, so a second run
// would end the same way. A job whose context was cancelled — by DELETE
// or the daemon drain — ends cancelled. The returned commit carries the
// job's terminal status; the committer applies it.
func (m *jobManager) execute(j *Job, run func(ctx context.Context) (any, error), running *telemetry.Gauge) commit {
	ctx, cancel := context.WithTimeout(m.baseCtx, m.jobTimeout)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()

	var result any
	var err error
	running.Inc()
	// Label the job's goroutine (and everything it spawns) so -pprof
	// profiles attribute hot time per workload.
	pprof.Do(ctx, pprof.Labels(
		"job", j.kind, "bench", j.meta.bench,
		"mode", j.meta.mode,
	), func(ctx context.Context) {
		result, err = m.runJob(ctx, j, run)
	})
	running.Dec()

	c := commit{j: j, err: err}
	switch {
	case err == nil:
		c.status = StatusDone
		if a, ok := result.(*simulateAnswer); ok {
			c.ans = a
		} else if result != nil {
			if c.payload, c.err = json.Marshal(result); c.err != nil {
				c.status = StatusFailed
				c.payload = nil
			}
		}
	case ctx.Err() == context.DeadlineExceeded && m.baseCtx.Err() == nil:
		m.reg.Counter("pac_job_watchdog_kills_total",
			"Jobs cancelled by the per-job watchdog deadline.",
			"kind", j.kind).Inc()
		c.status = StatusFailed
		c.err = fmt.Errorf("watchdog: job exceeded its deadline %s: %v", m.jobTimeout, err)
	case ctx.Err() != nil:
		c.status = StatusCancelled
	default:
		c.status = StatusFailed
	}
	return c
}

// runJob runs the job body, converting a panic into an error attributed
// to the job so one poisoned run cannot take down the worker pool.
func (m *jobManager) runJob(ctx context.Context, j *Job, run func(ctx context.Context) (any, error)) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			m.reg.Counter("pac_job_panics_total", "Jobs that panicked and were recovered.",
				"kind", j.kind).Inc()
			err = fmt.Errorf("job %s (%s) panicked: %v\n%s", j.id, j.kind, p, debug.Stack())
		}
	}()
	return run(ctx)
}

// journalFinished appends a queued job's terminal WAL record, fsynced.
// It runs before finish releases the job's waiters (on the committer,
// or on the handler that cancels a queued job), so a client that sees
// the terminal status never meets a journal that still holds the job
// live.
func (m *jobManager) journalFinished(id string, status Status) {
	if m.wal == nil {
		return
	}
	switch status {
	case StatusDone:
		m.journal(m.wal.Done, id)
	case StatusFailed:
		m.journal(m.wal.Fail, id)
	case StatusCancelled:
		m.journal(m.wal.Cancel, id)
	}
}

// noteFinished queues a queued job that reached a terminal state for
// retention eviction, in finishing order, and counts the transition.
func (m *jobManager) noteFinished(j *Job, status Status) {
	m.mu.Lock()
	m.finishedJobs = append(m.finishedJobs, j)
	m.mu.Unlock()
	m.countFinished(j.kind, status)
}

// countFinished counts one job reaching a terminal status.
func (m *jobManager) countFinished(kind string, status Status) {
	m.reg.Counter("pac_jobs_finished_total", "Jobs finished, by kind and status.",
		"kind", kind, "status", string(status)).Inc()
}

// noteDepth records the queue depth through the telemetry hooks (the
// KindQueueDepth event keeps the pac_jobs_queue_depth gauge current).
func (m *jobManager) noteDepth() {
	m.hooks.Emit(telemetry.Event{Kind: telemetry.KindQueueDepth, Depth: len(m.queue)})
}

// broadcastProgress fans one session progress line out to every running
// job — simulations are shared singleflight work, so every running job
// legitimately observes the same completions.
func (m *jobManager) broadcastProgress(line string) {
	for _, j := range m.list() {
		if j.Status() == StatusRunning {
			j.addProgress(line)
		}
	}
}

// drain stops accepting jobs, closes the queue, and waits for the
// workers to finish the backlog and for their committers to commit
// every job handed to them. When ctx expires first, the remaining jobs
// are cancelled and drain waits for them to unwind and commit.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	m.accepting = false
	m.mu.Unlock()
	m.resubMu.Lock()
	m.closing.Do(func() { close(m.queue) })
	m.resubMu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		m.baseCancel() // abort in-flight jobs
		<-finished
		return fmt.Errorf("server: drain timed out, %d in-flight jobs cancelled: %w",
			len(m.queue), ctx.Err())
	}
}
