// Package sched implements the BOINC client's job scheduling policy
// (paper §3.3) and its variants:
//
//   - JS-LOCAL: the baseline policy with local (per-type debt)
//     accounting,
//   - JS-GLOBAL: the baseline policy with global (REC) accounting,
//   - JS-WRR: JS-LOCAL without deadline awareness (pure weighted
//     round-robin ordering).
//
// The policy builds an ordered job list — running jobs that have not
// checkpointed first, then deadline-endangered jobs (earliest deadline
// first), GPU jobs before CPU jobs, then priority order — and scans it,
// running jobs until processors are fully committed, skipping jobs that
// would exceed the memory limit.
package sched

import (
	"fmt"
	"slices"

	"bce/internal/host"
	"bce/internal/invariant"
	"bce/internal/job"
)

// Policy selects a job-scheduling policy variant.
type Policy int

const (
	// JSLocal is the baseline policy with local accounting.
	JSLocal Policy = iota
	// JSGlobal is the baseline policy with global accounting.
	JSGlobal
	// JSWRR ignores deadlines (weighted round-robin only).
	JSWRR
	// JSLLF orders endangered jobs by least laxity instead of earliest
	// deadline — the paper's §6.2 note that EDF is optimal only for
	// uniprocessors and that other heuristics can beat it on
	// multiprocessors. Uses global accounting.
	JSLLF
)

// String returns the paper's name for the policy.
func (p Policy) String() string {
	switch p {
	case JSLocal:
		return "JS-LOCAL"
	case JSGlobal:
		return "JS-GLOBAL"
	case JSWRR:
		return "JS-WRR"
	case JSLLF:
		return "JS-LLF"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// UsesDeadlines reports whether the variant promotes deadline-
// endangered jobs (true for all but JS-WRR).
func (p Policy) UsesDeadlines() bool { return p != JSWRR }

// Input is everything one scheduling pass needs.
type Input struct {
	Policy   Policy
	Hardware *host.Hardware

	// Now is the current time, used by laxity-based ordering.
	Now float64

	// Tasks is the client's queue: every unfinished task, whatever its
	// state. Every task's Usage has passed job.Usage.Validate, so its
	// device and memory demands are finite and non-negative.
	Tasks []*job.Task

	// Endangered reports the round-robin simulation's deadline verdict
	// for a task (ignored by JS-WRR).
	Endangered func(*job.Task) bool

	// Prio is PRIO_sched(P, T) from the accounting scheme.
	Prio func(p int, t host.ProcType) float64

	// MaxMemBytes caps the summed working sets of scheduled jobs.
	MaxMemBytes float64

	// GPUAllowed gates GPU jobs (the "GPU computing allowed"
	// availability channel / preference).
	GPUAllowed bool
}

// Decision is the outcome of a scheduling pass: the exact set of tasks
// that should be running. A Decision returned by an Enforcer aliases
// the Enforcer's scratch storage and is valid until its next Enforce
// call.
type Decision struct {
	Run []*job.Task
}

// RunSet returns the decision's tasks as a set for differencing.
//
// Deprecated: the run set is small (bounded by processor counts);
// differencing with Decision.Contains avoids the per-pass map
// allocation on the emulator's hot path.
func (d Decision) RunSet() map[*job.Task]bool {
	m := make(map[*job.Task]bool, len(d.Run))
	for _, t := range d.Run {
		m[t] = true
	}
	return m
}

// Contains reports whether the decision schedules t. Linear scan: Run
// is bounded by the host's processor counts, so this beats building a
// set for realistic hardware.
func (d Decision) Contains(t *job.Task) bool {
	for _, r := range d.Run {
		if r == t {
			return true
		}
	}
	return false
}

// rank orders the job list. Lower rank runs earlier in the scan. It
// holds no pointer, so the scratch that stores and sorts ranks costs
// the garbage collector nothing.
type rank struct {
	key        float64 // within a class, ascending: deadline (or laxity) for endangered classes, negated accounting priority otherwise
	receivedAt float64 // final tie-break: FIFO
	idx        int32   // the task is Input.Tasks[idx]; equal ranks keep this order
	class      int8    // 0: running un-checkpointed, 1: endangered GPU, 2: GPU, 3: endangered CPU, 4: CPU
	running    bool    // tie-break: prefer already-running (fewer preemptions)
}

// cmpRank is the job-list order as a three-way comparison. It is the
// exact predicate the original sort.SliceStable call used (negating the
// priority turns its descending comparison into key's ascending one —
// equivalent for all finite floats); with a stable sort the output
// ordering is uniquely determined by the predicate and the input order,
// so swapping the sort implementation keeps emulations bit-identical.
func cmpRank(a, b rank) int {
	if lessRank(a, b) {
		return -1
	}
	if lessRank(b, a) {
		return 1
	}
	return 0
}

// lessRank is cmpRank as a strict less-than, cheap enough for the
// selection buffer's inner loop.
func lessRank(a, b rank) bool {
	if a.class != b.class {
		return a.class < b.class
	}
	if a.key != b.key {
		return a.key < b.key
	}
	if a.running != b.running {
		return a.running
	}
	return a.receivedAt < b.receivedAt
}

// after reports whether b sorts after a in the stable order: past it
// by the predicate, or tied with it and later in the queue.
func after(a, b rank) bool {
	return lessRank(a, b) || !lessRank(b, a) && b.idx > a.idx
}

// Enforcer runs scheduling passes with reusable scratch storage, so a
// steady-state pass allocates nothing. The zero value is ready to use.
// Not safe for concurrent use; each emulated client owns one.
type Enforcer struct {
	top   [topK]rank // the best ranks, in stable-sorted order
	ranks []rank     // the whole job list, in queue order until a fallback reuses it
	run   []*job.Task
}

// topK is the size of the selection buffer. A scan that saturates the
// host within it never looks further; real hosts' processor counts,
// and so the scan's usual depth, are far below it.
const topK = 32

// Enforce computes the set of tasks to run (paper §3.3's "build an
// ordered job list, then scan it"). The returned Decision aliases the
// Enforcer's scratch and is valid until the next call.
//
// The scan usually stops within the first few entries of the ordered
// list, so instead of stable-sorting the whole queue, one pass keeps
// the topK best ranks in a stable insertion buffer: a new rank moves
// left only past strictly greater entries, and once the buffer is
// full a rank not strictly less than its last entry is rejected (its
// input index is larger, so it would sort after that entry). The
// buffer is then exactly the stable sort's prefix, so scanning it
// yields the full sort's Decision whenever the scan stops inside it.
//
// Only when the scan exhausts the buffer without saturating, and ranks
// were dropped (memory or GPU skips, many fractional jobs), does the
// pass look further. Capacity and memory only shrink during a scan, so
// a dropped rank the scan would skip now it would skip at its place
// in the full order too. The fallback therefore keeps, in place, just
// the dropped ranks the scan would still take a look at, sorts those
// and continues the scan from where the buffer left it. That argument
// needs the finite, non-negative usage Input.Tasks promises.
//
//bce:hotpath
//bce:scratch
func (e *Enforcer) Enforce(in Input) Decision {
	if cap(e.ranks) < len(in.Tasks) {
		e.ranks = make([]rank, 0, len(in.Tasks)) //bce:allocok amortized grow of reusable scratch, stops once sized to the queue
	}
	top := e.top[:0]
	ranks := e.ranks[:0]
	for i, t := range in.Tasks {
		if t.Finished() || t.State == job.Downloading {
			continue // not runnable until its input files arrive
		}
		isGPU := t.Usage.IsGPU()
		if isGPU && !in.GPUAllowed {
			continue
		}
		r := rank{
			idx:        int32(i),
			running:    t.State == job.Running,
			receivedAt: t.ReceivedAt,
		}
		endangered := in.Policy.UsesDeadlines() && in.Endangered != nil && in.Endangered(t)
		switch {
		case t.State == job.Running && t.SinceCheckpoint() > 0 && !t.CheckpointedSinceStart():
			// "Running jobs that have not checkpointed yet have
			// precedence over all others." Once a job checkpoints
			// during its run session it becomes preemptable (at most
			// one checkpoint period of work is at risk).
			r.class = 0
		case isGPU && endangered:
			r.class = 1
		case isGPU:
			r.class = 2
		case endangered:
			r.class = 3
		default:
			r.class = 4
		}
		switch r.class {
		case 1, 3: // endangered: earliest deadline (or least laxity) first
			if in.Policy == JSLLF {
				// Laxity: time to deadline minus estimated remaining
				// execution.
				r.key = (t.Deadline - in.Now) - t.EstRemaining()
			} else {
				r.key = t.Deadline
			}
		default:
			r.key = -in.Prio(t.Project, t.Usage.Type())
		}
		if invariant.Enabled {
			invariant.Check(t.Usage.DemandsFinite(),
				"sched: task %q has unvalidated usage %+v", t.Name, t.Usage)
		}
		ranks = append(ranks, r)

		// Stable insertion into the selection buffer.
		n := len(top)
		if n == topK {
			if !lessRank(r, top[n-1]) {
				continue
			}
			n-- // the last entry falls off
		} else {
			top = top[:n+1]
		}
		for ; n > 0 && lessRank(r, top[n-1]); n-- {
			top[n] = top[n-1]
		}
		top[n] = r
	}
	e.ranks = ranks

	sc := newScan(&in)
	run, saturated := sc.scan(&in, top, e.run[:0])
	if !saturated && len(ranks) > len(top) {
		// Compact the dropped ranks still worth a look to the front of
		// ranks; the write index never passes the read index, and
		// ranks is not read again.
		last := top[len(top)-1]
		kept := ranks[:0]
		for _, r := range ranks {
			if after(last, r) && sc.fits(&in.Tasks[r.idx].Usage) {
				kept = append(kept, r)
			}
		}
		slices.SortStableFunc(kept, cmpRank)
		run, _ = sc.scan(&in, kept, run)
	}
	e.run = run //bce:retainok the Decision deliberately aliases scratch holding caller tasks until the next Enforce
	return Decision{Run: run}
}

// scanState is what a scan has left to commit: device instances per
// processor type and memory.
type scanState struct {
	remain [host.NumProcTypes]float64
	mem    float64
}

func newScan(in *Input) scanState {
	var s scanState
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		s.remain[t] = float64(in.Hardware.Proc[t].Count)
	}
	s.mem = in.MaxMemBytes
	if s.mem <= 0 {
		s.mem = in.Hardware.MemBytes
	}
	return s
}

const scanEps = 1e-9

// fits reports whether a scan in this state takes a job of usage u
// rather than skipping it. The tests are written as negated skips so
// that a NaN compares the way it always has.
func (s *scanState) fits(u *job.Usage) bool {
	if u.MemBytes > s.mem+scanEps {
		return false // "jobs are skipped if total memory usage would exceed the limit"
	}
	if u.IsGPU() {
		return !(u.GPUUsage > s.remain[u.GPUType]+scanEps) // "... or if GPUs cannot be allocated"
	}
	// A CPU job runs when any CPU capacity remains; its full demand is
	// committed (slight oversubscription allowed at the margin, as in
	// BOINC).
	return !(s.remain[host.CPU] <= scanEps)
}

// scan commits device instances and memory in rank order, appending
// the tasks that run to run, and stops when everything is saturated.
// It reports whether it stopped that way.
//
//bce:hotpath
func (s *scanState) scan(in *Input, ranks []rank, run []*job.Task) ([]*job.Task, bool) {
	for _, r := range ranks {
		t := in.Tasks[r.idx]
		u := &t.Usage
		if !s.fits(u) {
			continue
		}
		if u.IsGPU() {
			// GPU jobs may oversubscribe the CPU slightly; their CPU
			// demand is typically fractional.
			s.remain[u.GPUType] -= u.GPUUsage
		}
		s.remain[host.CPU] -= u.AvgCPUs
		s.mem -= u.MemBytes
		run = append(run, t)

		if saturated(s.remain, in.Hardware) {
			return run, true
		}
	}
	return run, false
}

// Enforce runs one scheduling pass with throwaway scratch. Hot-path
// callers should keep an Enforcer and use its method.
func Enforce(in Input) Decision {
	var e Enforcer
	return e.Enforce(in)
}

func saturated(remain [host.NumProcTypes]float64, hw *host.Hardware) bool {
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if hw.Proc[t].Count > 0 && remain[t] > 1e-9 {
			return false
		}
	}
	return true
}
