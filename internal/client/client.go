// Package client is the emulated BOINC client: the paper's BCE core.
// It drives the real policy implementations (round-robin simulation,
// debt/REC accounting, job scheduling, work fetch) inside a discrete-
// event simulation of everything else — job execution, host
// availability, network delays and project servers — and reports the
// figures of merit.
package client

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"bce/internal/account"
	"bce/internal/fetch"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/metrics"
	"bce/internal/project"
	"bce/internal/rrsim"
	"bce/internal/sched"
	"bce/internal/sim"
	"bce/internal/stats"
	"bce/internal/timeline"
	"bce/internal/transfer"
)

// Config assembles one emulation run: a scenario (host + projects), the
// policy variants under test, and emulator knobs.
type Config struct {
	Host     *host.Host
	Projects []project.Spec

	JobSched sched.Policy
	JobFetch fetch.PolicyKind

	// RECHalfLife is the global-accounting averaging half-life
	// (paper §5.4's parameter A); 0 uses the BOINC default.
	RECHalfLife float64

	// DeadlineMargin widens the endangered classification (seconds).
	// The zero value is a sentinel: it selects DefaultDeadlineMargin,
	// so zero-valued Configs keep the safe default. Any negative value
	// requests a margin of exactly zero (the paper's bare policy); use
	// ZeroDeadlineMargin to spell that readably.
	DeadlineMargin float64

	// RPCDelay is the simulated latency of one scheduler RPC (default 5 s).
	RPCDelay float64

	// ReportMaxDelay bounds how long a completed job waits before the
	// client makes an RPC just to report it (default 3600 s).
	ReportMaxDelay float64

	Duration float64 // emulation length in seconds
	Seed     int64

	// Log receives the emulator's message log (scheduling decisions);
	// nil discards it.
	Log io.Writer

	// RecordTimeline enables per-task execution segments.
	RecordTimeline bool

	// MonotonyWindow overrides the monotony metric window (seconds).
	MonotonyWindow float64

	// TransferPolicy orders file transfers when the host has a finite
	// link speed (file-transfer extension).
	TransferPolicy transfer.Policy
}

const (
	// DefaultDeadlineMargin is the endangered-classification safety
	// margin (seconds) applied when Config.DeadlineMargin is zero: two
	// scheduling periods, covering the reaction delay between
	// classification and enforcement plus one checkpoint period of
	// potentially lost work.
	DefaultDeadlineMargin = 120

	// ZeroDeadlineMargin is the Config.DeadlineMargin value requesting
	// a margin of exactly zero seconds (the paper's bare policy); the
	// literal zero is taken by the backward-compatible default
	// sentinel. Any negative value behaves the same.
	ZeroDeadlineMargin = -1
)

func (c Config) withDefaults() Config {
	if c.RPCDelay <= 0 {
		c.RPCDelay = 5
	}
	if c.ReportMaxDelay <= 0 {
		c.ReportMaxDelay = 3600
	}
	if c.DeadlineMargin == 0 {
		c.DeadlineMargin = DefaultDeadlineMargin
	} else if c.DeadlineMargin < 0 {
		c.DeadlineMargin = 0
	}
	if c.Duration <= 0 {
		c.Duration = 10 * 86400 // the paper's default period
	}
	return c
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.Host == nil {
		return fmt.Errorf("client: no host")
	}
	if err := c.Host.Hardware.Validate(); err != nil {
		return err
	}
	if len(c.Projects) == 0 {
		return fmt.Errorf("client: no projects")
	}
	for _, p := range c.Projects {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of one emulation run.
type Result struct {
	Metrics  metrics.Metrics
	Timeline *timeline.Recorder // nil unless requested
	Events   uint64             // simulator events dispatched

	// Per-project dispatch counters, from the server substrate.
	Dispatched []int
	Refused    []int
}

const (
	rpcRetryMin    = 60       // min interval between RPCs to one project
	rpcBackoffMax  = 4 * 3600 // cap on exponential backoff
	maxQueuedTasks = 20000    // runaway-fetch guard
)

// Client is one emulation in progress.
type Client struct {
	cfg     Config
	sim     *sim.Simulator
	hw      *host.Hardware
	prefs   host.Preferences
	servers []*project.Server
	shares  []float64
	acct    account.Accounting
	rec     *metrics.Recorder
	tl      *timeline.Recorder
	rng     *stats.RNG

	// tasks is the queue. The running set is not tracked separately:
	// t.State == job.Running is authoritative (Start/Preempt/Advance
	// keep it exact), which spares the hot path a map.
	tasks []*job.Task

	// Per-tick scratch and persistent closures: a tick is the hot path,
	// so everything it needs lives on the Client instead of being
	// allocated per pass.
	enforcer         sched.Enforcer
	tickFn           func()
	prioFn           func(p int, t host.ProcType) float64 // c.acct.PrioSched, bound once
	accrueFn         func(p int, t host.ProcType) bool    // c.accruesShare, bound once
	runScratch       []*job.Task
	completedScratch []*job.Task

	lastAdvance float64

	computeOn bool
	gpuOn     bool
	netOn     bool
	logOn     bool    // cfg.Log != nil; hot paths check it before logf so discarded logs cost no argument boxing
	availMark float64 // start of current available span

	tickTimer *sim.Timer

	rpcInFlight   bool
	backoffUntil  []float64
	backoffCount  []int
	pendingReport [][]*job.Task
	reportDue     []*sim.Timer
	views         []fetch.ProjectView // static fields filled in New; floats updated per decision

	xfer *transfer.Manager

	onFrac [host.NumProcTypes]float64

	// Round-robin simulation hot-path state: a reusable simulator, the
	// scratch job slices it reads, and a fingerprint cache that skips
	// the simulation entirely when the workload is provably unchanged.
	rr          *rrsim.Simulator
	rrRes       rrsim.Result // reused output buffer; rrCache.res aliases it
	rrJobs      []rrsim.Job
	rrJobPtrs   []*rrsim.Job
	rrCache     rrCache
	rrCacheOff  bool   // tests: force a fresh simulation every tick
	rrCacheHits uint64 // tests/observability
}

// rrCache holds the last simulation's validity window. The input
// fingerprint needs no separate storage: the job array itself is the
// key (RunInto writes only the output fields), so a hit needs (a) every
// rebuilt input field equal to the previous run's and (b) now <=
// validUntil: endangered classification depends on absolute time, so
// the cached result is only reused while no job's slack can have run
// out — see rrsimValidUntil.
type rrCache struct {
	valid      bool
	validUntil float64
	res        *rrsim.Result
}

// New builds a client for the config.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:       cfg,
		sim:       sim.New(),
		hw:        &cfg.Host.Hardware,
		prefs:     cfg.Host.Prefs.Defaults(),
		rng:       stats.NewRNG(cfg.Seed),
		computeOn: true,
		gpuOn:     true,
		netOn:     true,
		logOn:     cfg.Log != nil,
		rr:        rrsim.New(),
	}
	c.shares = make([]float64, len(cfg.Projects))
	for i, p := range cfg.Projects {
		c.shares[i] = p.Share
		srv, err := project.NewServer(p, i, c.rng.Fork("server/"+p.Name))
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	switch cfg.JobSched {
	case sched.JSGlobal, sched.JSLLF:
		c.acct = account.NewGlobalREC(c.shares, cfg.RECHalfLife)
	default:
		c.acct = account.NewLocalDebt(c.shares, c.hw)
	}
	c.prioFn = c.acct.PrioSched
	c.accrueFn = c.accruesShare
	c.rec = metrics.New(c.hw, c.shares, 0)
	if cfg.MonotonyWindow > 0 {
		c.rec.SetWindow(cfg.MonotonyWindow)
	}
	if cfg.RecordTimeline {
		c.tl = timeline.NewRecorder()
	}
	c.xfer = transfer.New(c.sim, c.hw.DownloadBps, c.hw.UploadBps, cfg.TransferPolicy)
	c.backoffUntil = make([]float64, len(cfg.Projects))
	c.backoffCount = make([]int, len(cfg.Projects))
	c.pendingReport = make([][]*job.Task, len(cfg.Projects))
	c.reportDue = make([]*sim.Timer, len(cfg.Projects))
	c.views = make([]fetch.ProjectView, len(c.servers))
	for i, s := range c.servers {
		c.views[i] = fetch.ProjectView{Share: s.Spec.Share, Supplies: s}
	}
	c.tickFn = func() {
		t := c.tickTimer
		c.tickTimer = nil // this tick has fired; it no longer blocks rescheduling
		c.sim.Recycle(t)
		c.tick()
	}

	// The client's long-run availability estimate, used by the
	// round-robin simulation and sent to servers for deadline checks.
	computeFrac := cfg.Host.Avail.Frac(host.Compute)
	gpuFrac := computeFrac * cfg.Host.Avail.Frac(host.GPUCompute)
	c.onFrac[host.CPU] = computeFrac
	c.onFrac[host.NvidiaGPU] = gpuFrac
	c.onFrac[host.AtiGPU] = gpuFrac
	return c, nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "[%10.1f] %s\n", c.sim.Now(), fmt.Sprintf(format, args...))
	}
}

// Run executes the emulation and returns the figures of merit.
//
//bce:ctxshim convenience wrapper; roots a background context and delegates to the Context variant
func (c *Client) Run() (*Result, error) { return c.RunContext(context.Background()) }

// Context checks in RunContext happen between batches of simulator
// events. Event cost varies over four orders of magnitude with the
// scenario — a job-heavy host can spend ~0.5 s of CPU in a single
// rr_sim pass — so a fixed batch size cannot both stay off the hot
// path and keep cancellation prompt. The batch therefore adapts to
// wall-clock: it doubles while batches finish quickly and shrinks
// when they run long, keeping check latency near ctxCheckTarget.
const (
	ctxCheckTarget    = 100 * time.Millisecond
	minCtxCheckEvents = 16
	maxCtxCheckEvents = 65536
)

// RunContext executes the emulation, honoring ctx between batches of
// simulator events: when ctx is canceled or times out, the run stops
// promptly (within roughly ctxCheckTarget, or one event if a single
// event runs longer) and returns an error wrapping the context's
// cause (so errors.Is(err, context.Canceled) works). A finished run
// is never invalidated retroactively — cancellation only affects runs
// still in progress. The adaptive batching controls only *when* ctx
// is observed, never the event order, so results stay bit-for-bit
// deterministic.
func (c *Client) RunContext(ctx context.Context) (*Result, error) {
	c.startAvailability()
	c.availMark = 0
	c.scheduleTick(0)
	batch := minCtxCheckEvents
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("client: emulation stopped at t=%.0f s after %d events: %w",
				c.sim.Now(), c.sim.Fired(), context.Cause(ctx))
		}
		start := time.Now() //bce:wallclock adaptive ctx-check batching measures host time, never sim state
		if c.sim.RunUntilN(c.cfg.Duration, batch) < batch {
			break
		}
		switch elapsed := time.Since(start); { //bce:wallclock adaptive ctx-check batching measures host time, never sim state
		case elapsed < ctxCheckTarget/4 && batch < maxCtxCheckEvents:
			batch *= 2
		case elapsed > ctxCheckTarget && batch > minCtxCheckEvents:
			batch /= 2
		}
	}

	// Final bookkeeping at the end time.
	c.advance()
	if c.computeOn {
		c.rec.OnAvailable(c.availMark, c.sim.Now())
	}
	if c.tl != nil {
		c.tl.CloseAll(c.sim.Now())
	}
	res := &Result{
		Metrics: c.rec.Report(),
		Events:  c.sim.Fired(),
	}
	res.Timeline = c.tl
	for _, s := range c.servers {
		res.Dispatched = append(res.Dispatched, s.Dispatched)
		res.Refused = append(res.Refused, s.Refused)
	}
	return res, nil
}

// startAvailability schedules the on/off transition events for the
// three availability channels (random processes or trace replays).
func (c *Client) startAvailability() {
	for ch := host.Channel(0); ch < host.NumChannels; ch++ {
		src := c.cfg.Host.Avail.Source(ch, c.rng.Fork("avail/"+ch.String()))
		c.startChannel(ch, src)
	}
}

func (c *Client) startChannel(ch host.Channel, src host.PeriodSource) {
	if src == nil {
		return // always on
	}
	// Each event enters the next period: flip the channel to the
	// period's state and schedule the following transition at its end.
	var next func()
	next = func() {
		d, on := src.Next()
		c.setChannel(ch, on)
		if d <= 0 && on {
			return // available forever
		}
		c.sim.Post(d, next)
	}
	// First period: the client starts in the "on" state; a trace may
	// begin with an off period, which takes effect immediately.
	d, on := src.Next()
	if d <= 0 && on {
		return
	}
	if !on {
		c.setChannel(ch, false)
	}
	c.sim.Post(d, next)
}

func (c *Client) setChannel(ch host.Channel, on bool) {
	switch ch {
	case host.Compute:
		if on == c.computeOn {
			return
		}
		c.advance()
		c.computeOn = on
		if on {
			c.logf("host available: computing resumes")
			c.availMark = c.sim.Now()
			c.scheduleTick(0)
		} else {
			c.logf("host unavailable: computing suspended")
			c.rec.OnAvailable(c.availMark, c.sim.Now())
			c.preemptAll()
		}
	case host.GPUCompute:
		if on == c.gpuOn {
			return
		}
		c.advance()
		c.gpuOn = on
		c.logf("GPU computing %s", onOff(on))
		if c.computeOn {
			c.scheduleTick(0)
		}
	case host.Network:
		if on == c.netOn {
			return
		}
		c.netOn = on
		c.xfer.SetOnline(on)
		c.logf("network %s", onOff(on))
		if on && c.computeOn {
			c.scheduleTick(0)
		}
	}
}

func onOff(b bool) string {
	if b {
		return "resumed"
	}
	return "suspended"
}

func (c *Client) preemptAll() {
	for _, t := range c.runningInOrder() {
		c.stopTask(t)
	}
}

// runningInOrder returns the running tasks in queue (arrival) order.
// Iterating the running set through the tasks slice keeps emulations
// deterministic: map iteration order would reorder floating-point
// accumulation and event scheduling between runs. The returned slice
// is scratch, valid until the next call; callers never hold it across
// a nested runningInOrder (advance, the stop pass and preemptAll are
// strictly sequential).
func (c *Client) runningInOrder() []*job.Task {
	out := c.runScratch[:0]
	for _, t := range c.tasks {
		if t.State == job.Running {
			out = append(out, t)
		}
	}
	c.runScratch = out
	return out
}

// stopTask preempts one running task, accounting for lost work.
func (c *Client) stopTask(t *job.Task) {
	lost := t.Preempt(!c.prefs.LeaveInMemory)
	if lost > 0 {
		c.rec.OnLostWork(t, lost)
	}
	if c.logOn {
		if lost > 0 {
			c.logf("preempt %s (lost %.0f s since checkpoint)", t.Name, lost)
		} else {
			c.logf("preempt %s", t.Name)
		}
	}
	if c.tl != nil {
		c.tl.Stop(c.sim.Now(), t.Name)
	}
}

// advance credits execution to running tasks for the span since the
// last advance, charging accounting and handling completions.
func (c *Client) advance() {
	now := c.sim.Now()
	dt := now - c.lastAdvance
	if dt <= 0 {
		c.lastAdvance = now
		return
	}
	completed := c.completedScratch[:0]
	for _, t := range c.runningInOrder() {
		// A task stops consuming the processor the moment it finishes;
		// clip the credited span so late advances (e.g. the final
		// catch-up at the end of the run) don't inflate usage.
		span := dt
		if r := t.Remaining(); r < span {
			span = r
		}
		end := c.lastAdvance + span
		c.rec.OnRun(c.lastAdvance, end, t)
		u := t.Usage
		cpuFlops := u.AvgCPUs * c.hw.Proc[host.CPU].FLOPSPerInst
		c.acct.Charge(end, t.Project, host.CPU, u.AvgCPUs*span, cpuFlops*span)
		if u.IsGPU() {
			gflops := u.GPUUsage * c.hw.Proc[u.GPUType].FLOPSPerInst
			c.acct.Charge(end, t.Project, u.GPUType, u.GPUUsage*span, gflops*span)
		}
		if t.Advance(span, end) {
			completed = append(completed, t)
		}
	}
	c.lastAdvance = now
	c.completedScratch = completed
	for _, t := range completed {
		c.completeTask(t)
	}
}

func (c *Client) completeTask(t *job.Task) {
	if c.tl != nil {
		c.tl.Stop(c.sim.Now(), t.Name)
	}
	c.rec.OnComplete(t)
	if c.logOn {
		if t.MissedDeadline {
			c.logf("completed %s AFTER deadline (%.0f > %.0f)", t.Name, t.CompletedAt, t.Deadline)
		} else {
			c.logf("completed %s (deadline %.0f)", t.Name, t.Deadline)
		}
	}
	// Remove from the queue.
	for i, q := range c.tasks {
		if q == t {
			c.tasks = append(c.tasks[:i], c.tasks[i+1:]...)
			break
		}
	}
	// Output files must be uploaded before the result can be reported.
	if t.OutputBytes > 0 && c.hw.UploadBps > 0 {
		if c.logOn {
			c.logf("upload %s (%.0f bytes)", t.Name, t.OutputBytes)
		}
		c.xfer.Enqueue(transfer.Up, &transfer.Transfer{
			Name:     t.Name,
			Bytes:    t.OutputBytes,
			Deadline: t.Deadline,
			Done:     func() { c.readyToReport(t) },
		})
		return
	}
	c.readyToReport(t)
}

// readyToReport queues a completed (and fully uploaded) task for the
// next scheduler RPC to its project, bounding the wait.
func (c *Client) readyToReport(t *job.Task) {
	p := t.Project
	c.pendingReport[p] = append(c.pendingReport[p], t)
	if c.reportDue[p] == nil {
		deadline := c.sim.Now() + c.cfg.ReportMaxDelay
		c.reportDue[p] = c.sim.At(deadline, func() {
			c.reportDue[p] = nil
			if len(c.pendingReport[p]) > 0 && c.netOn && !c.rpcInFlight {
				c.issueRPC(p, nil)
			}
		})
	}
}

// scheduleTick coalesces scheduling passes: it ensures a tick fires no
// later than delay seconds from now. A non-nil tickTimer is always
// pending (the fired callback nils it before anything else), so a
// later-scheduled pass moves the timer in place — no cancel/allocate
// churn — and takes a fresh sequence number, exactly as a cancel +
// reschedule would have ordered it.
func (c *Client) scheduleTick(delay float64) {
	at := c.sim.Now() + delay
	if c.tickTimer != nil {
		if c.tickTimer.At() <= at {
			return // an earlier tick is already pending
		}
		c.sim.Move(c.tickTimer, at)
		return
	}
	c.tickTimer = c.sim.At(at, c.tickFn)
}

// accruesShare is the eligibility predicate for debt accrual: a project
// accrues type-t debt while it supplies type-t jobs, whether or not any
// are currently queued (otherwise a starved project would never regain
// priority; the paper notes this accrual question is left open and we
// follow BOINC's work-fetch debt).
func (c *Client) accruesShare(p int, t host.ProcType) bool {
	return c.servers[p].SuppliesType(t)
}

// rrsimSlackEpsilon is subtracted from the cache validity bound so that
// last-ulp differences between a cached projection and a fresh run can
// never change an endangered verdict. It is far below the 60 s tick
// granularity, so it costs at most one spurious recomputation.
const rrsimSlackEpsilon = 1e-3

// runRRSim runs the round-robin simulation over the current queue, or
// reuses the previous result when the workload fingerprint is unchanged
// and every job's deadline slack provably still holds (empty-queue and
// all-waiting stretches hit this path on every tick). Endangered
// verdicts are not returned: they latch onto each task's
// DeadlineFlagged bit, which the scheduler reads directly.
//
//bce:hotpath
func (c *Client) runRRSim() *rrsim.Result {
	now := c.sim.Now()
	cc := &c.rrCache

	// Fingerprint and build in one pass: the previous run's job array
	// is itself the cache key, since RunInto writes only the output
	// fields. Each unfinished task is compared against, then written
	// over, the entry it would occupy; if every input field matched
	// (and the validity window holds) nothing changed and the cached
	// result stands.
	if cap(c.rrJobs) < len(c.tasks) {
		grown := make([]rrsim.Job, len(c.tasks)) //bce:allocok amortized grow of the cross-tick job cache, stops once sized to the queue
		copy(grown, c.rrJobs)
		c.rrJobs = grown[:len(c.rrJobs)]
	}
	prev := len(c.rrJobs)
	match := cc.valid && now <= cc.validUntil && !c.rrCacheOff
	jobs := c.rrJobs[:cap(c.rrJobs)]
	n := 0
	for _, t := range c.tasks {
		if t.Finished() {
			continue
		}
		j := &jobs[n]
		remaining := t.EstRemaining()
		instances := t.Usage.Instances()
		typ := t.Usage.Type()
		if match && (n >= prev || j.Task != t || j.Remaining != remaining ||
			j.Deadline != t.Deadline || j.Instances != instances ||
			j.Type != typ || j.Project != t.Project) {
			match = false
		}
		j.Task, j.Project, j.Type = t, t.Project, typ
		j.Instances, j.Remaining, j.Deadline = instances, remaining, t.Deadline
		n++
	}
	c.rrJobs = jobs[:n]

	if match && n == prev {
		c.rrCacheHits++
		return cc.res
	}

	// rrsim keeps no references past the run, so the pointer slice and
	// job array live across ticks as scratch.
	if cap(c.rrJobPtrs) < n {
		c.rrJobPtrs = make([]*rrsim.Job, n) //bce:allocok amortized grow of reusable scratch, stops once sized to the queue
	}
	c.rrJobPtrs = c.rrJobPtrs[:n]
	for i := range c.rrJobPtrs {
		c.rrJobPtrs[i] = &c.rrJobs[i]
	}

	res := &c.rrRes
	c.rr.RunInto(res, rrsim.Input{
		Now:            now,
		Hardware:       c.hw,
		Shares:         c.shares,
		OnFrac:         c.onFrac,
		HorizonMin:     c.prefs.MinQueue,
		HorizonMax:     c.prefs.MaxQueue,
		DeadlineMargin: c.cfg.DeadlineMargin,
		Jobs:           c.rrJobPtrs,
	})

	for _, j := range c.rrJobPtrs {
		if j.Endangered {
			j.Task.DeadlineFlagged = true // latch; see job.Task.DeadlineFlagged
		}
	}

	cc.res = res
	cc.valid = true
	cc.validUntil = c.rrsimValidUntil(now)
	return res
}

// rrsimValidUntil bounds how long the just-computed simulation stays
// valid for an unchanged workload. With identical jobs at a later time
// t, the simulation's relative dynamics (step lengths, rates, shortfall
// and SAT integrals) are bit-identical — only absolute finish times
// shift by t−now. So the one thing that can change is the endangered
// classification: a non-endangered job j flips once t−now exceeds its
// slack (Deadline − margin − ProjectedFinish). The cache is therefore
// valid until the smallest such slack runs out (minus an epsilon that
// absorbs final-addition round-off); already-endangered jobs only get
// later, and an empty or never-finishing queue is valid forever.
func (c *Client) rrsimValidUntil(now float64) float64 {
	margin := c.cfg.DeadlineMargin
	until := math.Inf(1)
	for i := range c.rrJobs {
		j := &c.rrJobs[i]
		if j.Endangered {
			continue
		}
		if u := now + (j.Deadline - margin - j.ProjectedFinish) - rrsimSlackEpsilon; u < until {
			until = u
		}
	}
	return until
}

// taskEndangered is the scheduler's deadline-verdict predicate: the
// round-robin simulation latches its endangered classification onto
// the task itself, so no per-tick verdict set has to be built.
func taskEndangered(t *job.Task) bool { return t.DeadlineFlagged }

// tick is one scheduling pass: advance time, re-run the round-robin
// simulation, enforce the job schedule, consider work fetch, and
// schedule the next pass.
func (c *Client) tick() {
	c.advance()
	if !c.computeOn {
		return
	}
	now := c.sim.Now()
	c.acct.Update(now, c.accrueFn)
	rr := c.runRRSim()

	dec := c.enforcer.Enforce(sched.Input{
		Policy:      c.cfg.JobSched,
		Now:         now,
		Hardware:    c.hw,
		Tasks:       c.tasks,
		Endangered:  taskEndangered,
		Prio:        c.prioFn,
		MaxMemBytes: c.prefs.MaxMemFrac * c.hw.MemBytes,
		GPUAllowed:  c.gpuOn,
	})
	for _, t := range c.runningInOrder() {
		if !dec.Contains(t) {
			c.stopTask(t)
		}
	}
	for _, t := range dec.Run {
		if t.State != job.Running {
			t.Start(now)
			if c.logOn {
				c.logf("start %s (project %d, %s)", t.Name, t.Project, t.Usage.Type())
			}
			if c.tl != nil {
				c.tl.Start(now, t.Name, t.Project, t.Usage.Type(), t.Usage.Instances())
			}
		}
	}

	// Next completion wakes us exactly on time. After the stop and
	// start passes the running set is exactly dec.Run.
	next := c.prefs.CPUSchedPeriod
	for _, t := range dec.Run {
		if r := t.Remaining(); r < next {
			next = r
		}
	}

	c.maybeFetch(rr)
	c.scheduleTick(math.Max(next, 1e-3))
}

// maybeFetch runs the work-fetch policy and issues at most one RPC.
func (c *Client) maybeFetch(rr *rrsim.Result) {
	if c.rpcInFlight || !c.netOn {
		return
	}
	if len(c.tasks) > maxQueuedTasks {
		c.logf("queue cap reached (%d tasks); fetch suspended", len(c.tasks))
		return
	}
	now := c.sim.Now()
	// The views' static fields (share, supplier) were set in New; only
	// the per-decision floats change, so no per-call allocation.
	for i := range c.views {
		c.views[i].PrioFetch = c.acct.PrioFetch(i)
		c.views[i].BackoffUntil = c.backoffUntil[i]
	}
	plan := fetch.Decide(c.cfg.JobFetch, fetch.Input{
		Now:      now,
		Hardware: c.hw,
		RR:       rr,
		MinQueue: c.prefs.MinQueue,
		MaxQueue: c.prefs.MaxQueue,
		Projects: c.views,
	})
	if plan.None() {
		return
	}
	c.issueRPC(plan.Project, plan.Requests)
}

// issueRPC simulates one scheduler RPC to project p: it reports any
// completed tasks of p and requests the planned work.
func (c *Client) issueRPC(p int, reqs []project.Request) {
	c.rpcInFlight = true
	c.rec.OnRPC()
	reporting := len(c.pendingReport[p])
	if c.logOn {
		c.logf("RPC to project %d: report %d, request %s", p, reporting, fmtReqs(reqs))
	}
	// The server stamps deadlines at dispatch time; the reply reaches
	// the client one RPC delay later, so that delay consumes slack.
	sentAt := c.sim.Now()
	c.sim.Post(c.cfg.RPCDelay, func() {
		c.rpcInFlight = false
		now := c.sim.Now()
		srv := c.servers[p]
		if !srv.Reachable(now) {
			c.backoff(p, "project down")
			c.scheduleTick(0)
			return
		}
		// Report completions.
		for _, t := range c.pendingReport[p] {
			t.State = job.Reported
		}
		c.pendingReport[p] = c.pendingReport[p][:0]
		if c.reportDue[p] != nil {
			c.sim.Cancel(c.reportDue[p])
			c.reportDue[p] = nil
		}
		// Receive new work. Jobs are generated (and their deadlines
		// stamped) at send time, but arrive only now.
		got := srv.Dispatch(sentAt, reqs, project.HostInfo{OnFrac: c.onFrac[host.CPU]})
		if len(got) == 0 && project.EstimatedQueueSeconds(reqs) > 0 {
			c.backoff(p, "no work available")
		} else {
			c.backoffCount[p] = 0
			c.backoffUntil[p] = now + rpcRetryMin
		}
		for _, t := range got {
			t := t
			t.ReceivedAt = now
			c.tasks = append(c.tasks, t)
			if c.logOn {
				c.logf("got %s (est %.0f s, deadline %.0f)", t.Name, t.EstDuration, t.Deadline)
			}
			// Input files must arrive before the task can run.
			if t.InputBytes > 0 && c.hw.DownloadBps > 0 {
				t.State = job.Downloading
				c.xfer.Enqueue(transfer.Down, &transfer.Transfer{
					Name:     t.Name,
					Bytes:    t.InputBytes,
					Deadline: t.Deadline,
					Done: func() {
						t.State = job.Queued
						if c.logOn {
							c.logf("download of %s complete", t.Name)
						}
						c.scheduleTick(0)
					},
				})
			}
		}
		c.scheduleTick(0)
	})
}

// backoff applies exponential backoff to a project after a failed or
// empty RPC.
func (c *Client) backoff(p int, why string) {
	c.backoffCount[p]++
	d := float64(uint64(60) << uint(min(c.backoffCount[p]-1, 8)))
	if d > rpcBackoffMax {
		d = rpcBackoffMax
	}
	// Jitter avoids lock-step retries.
	d *= 0.5 + c.rng.Float64()
	c.backoffUntil[p] = c.sim.Now() + d
	if c.logOn {
		c.logf("backoff project %d for %.0f s (%s)", p, d, why)
	}
}

func fmtReqs(reqs []project.Request) string {
	if len(reqs) == 0 {
		return "nothing (report only)"
	}
	s := ""
	for i, r := range reqs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %.0f s / %.1f inst", r.Type, r.Seconds, r.Instances)
	}
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// QueueLen exposes the current queue length (for tests).
func (c *Client) QueueLen() int { return len(c.tasks) }
