package main

import (
	"fmt"
	"time"

	"bce/internal/account"
	"bce/internal/client"
	"bce/internal/fetch"
	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/project"
	"bce/internal/rrsim"
	"bce/internal/scenario"
	"bce/internal/sched"
	"bce/internal/stats"
)

// Inside an emulation the client calls rrsim, sched, fetch, account and
// project privately, so the traced run replays those layers on queues
// built from the workload's own scenarios with public constructors
// only: Scenario.BuildProjects → project.NewServer → Server.Dispatch
// until each processor type's max-queue buffer is full (split by
// share), then rrsim.NewJob. What the replay cannot reproduce from
// outside — running tasks' partial progress, accumulated debt or REC,
// backoffs — is listed in README.md.

// kernelStats holds the replayed per-call costs.
type kernelStats struct {
	rrsimUs, rrsimJobs, enforceUs, decideNs, updateNs, dispatchUs float64
}

func (k kernelStats) into(put func(name string, v float64, unit string)) {
	put("rrsim.run_us", k.rrsimUs, "us")
	put("rrsim.jobs", k.rrsimJobs, "count")
	put("sched.enforce_us", k.enforceUs, "us")
	put("fetch.decide_ns", k.decideNs, "ns")
	put("account.update_ns", k.updateNs, "ns")
	put("project.dispatch_us", k.dispatchUs, "us")
}

// maxReplayTasks bounds one replay queue, like the client's own guard.
const maxReplayTasks = 20000

// kernelQueue is one scenario's filled queue and the state around it.
type kernelQueue struct {
	hw      *host.Hardware
	prefs   host.Preferences
	shares  []float64
	servers []*project.Server
	tasks   []*job.Task
	onFrac  [host.NumProcTypes]float64
}

// buildQueue fills s's queue through the project servers, timing each
// Dispatch call into dispatchUs.
func buildQueue(s *scenario.Scenario, dispatchUs *[]float64) (*kernelQueue, error) {
	h, err := s.Host.BuildHost()
	if err != nil {
		return nil, err
	}
	specs, err := s.BuildProjects()
	if err != nil {
		return nil, err
	}
	q := &kernelQueue{hw: &h.Hardware, prefs: h.Prefs.Defaults()}
	rng := stats.NewRNG(s.Seed)
	for i, sp := range specs {
		srv, err := project.NewServer(sp, i, rng.Fork("server/"+sp.Name))
		if err != nil {
			return nil, err
		}
		q.servers = append(q.servers, srv)
		q.shares = append(q.shares, sp.Share)
	}
	compute := h.Avail.Frac(host.Compute)
	q.onFrac = [host.NumProcTypes]float64{host.CPU: compute, host.NvidiaGPU: compute * h.Avail.Frac(host.GPUCompute),
		host.AtiGPU: compute * h.Avail.Frac(host.GPUCompute)}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		inst := float64(q.hw.Proc[t].Count)
		if inst == 0 {
			continue
		}
		var total float64
		for p, srv := range q.servers {
			if srv.SuppliesType(t) {
				total += q.shares[p]
			}
		}
		for p, srv := range q.servers {
			if !srv.SuppliesType(t) {
				continue
			}
			frac := q.shares[p] / total
			secs := inst * q.prefs.MaxQueue * frac
			for secs > 0 && len(q.tasks) < maxReplayTasks {
				t0 := time.Now()
				got := srv.Dispatch(0, []project.Request{{Type: t, Instances: inst * frac, Seconds: secs}},
					project.HostInfo{OnFrac: q.onFrac[t]})
				*dispatchUs = append(*dispatchUs, float64(time.Since(t0))/float64(time.Microsecond))
				if len(got) == 0 {
					break
				}
				for _, tk := range got {
					secs -= tk.EstDuration * tk.Usage.Instances()
				}
				q.tasks = append(q.tasks, got...)
			}
		}
	}
	return q, nil
}

// timeCalls runs f in rounds of n calls until at least minRounds
// rounds and minTotal have elapsed, returning each round's per-call
// time in unit.
func timeCalls(n int, unit time.Duration, f func()) []float64 {
	const minRounds, minTotal = 5, 20 * time.Millisecond
	var out []float64
	var total time.Duration
	for r := 0; r < minRounds || (total < minTotal && r < 1000); r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		d := time.Since(t0)
		total += d
		out = append(out, float64(d)/float64(n)/float64(unit))
	}
	return out
}

// replayKernels replays each kernel layer on every scenario's queue and
// returns the median per-call cost over all of them.
func replayKernels(tr *tracer, scns []*scenario.Scenario) (kernelStats, error) {
	var ks kernelStats
	if len(scns) == 0 {
		return ks, fmt.Errorf("no scenarios to replay")
	}
	var dispatch, rr, jobs, enforce, decide, update []float64
	op := tr.newOp()
	for _, s := range scns {
		t0 := time.Now()
		q, err := buildQueue(s, &dispatch)
		if err != nil {
			return ks, fmt.Errorf("replay queue for %s: %w", s.Name, err)
		}
		tr.record("replay.project", 0, op, t0, time.Now())
		jobs = append(jobs, float64(len(q.tasks)))

		t0 = time.Now()
		rrJobs := make([]*rrsim.Job, len(q.tasks))
		for i, t := range q.tasks {
			rrJobs[i] = rrsim.NewJob(t)
		}
		in := rrsim.Input{
			Now: 0, Hardware: q.hw, Shares: q.shares, OnFrac: q.onFrac,
			HorizonMin: q.prefs.MinQueue, HorizonMax: q.prefs.MaxQueue,
			DeadlineMargin: client.DefaultDeadlineMargin, Jobs: rrJobs,
		}
		sim := rrsim.New()
		var res rrsim.Result
		rr = append(rr, timeCalls(1, time.Microsecond, func() { sim.RunInto(&res, in) })...)
		for _, j := range rrJobs {
			// The scheduler reads rr_sim's verdict from the task's
			// documented latch.
			j.Task.DeadlineFlagged = j.Endangered
		}
		tr.record("replay.rrsim", 0, op, t0, time.Now())

		t0 = time.Now()
		hasWork := func(p int, t host.ProcType) bool { return q.servers[p].SuppliesType(t) }
		local := account.NewLocalDebt(q.shares, q.hw)
		global := account.NewGlobalREC(q.shares, 0)
		for _, acct := range []account.Accounting{local, global} {
			now := 0.0
			update = append(update, timeCalls(1000, time.Nanosecond, func() {
				now += 60
				acct.Update(now, hasWork)
			})...)
		}
		tr.record("replay.account", 0, op, t0, time.Now())

		t0 = time.Now()
		for _, pol := range []sched.Policy{sched.JSLocal, sched.JSGlobal, sched.JSWRR} {
			var acct account.Accounting = local
			if pol == sched.JSGlobal {
				acct = global
			}
			sin := sched.Input{
				Policy: pol, Hardware: q.hw, Tasks: q.tasks,
				Endangered:  func(t *job.Task) bool { return t.DeadlineFlagged },
				Prio:        acct.PrioSched,
				MaxMemBytes: q.prefs.MaxMemFrac * q.hw.MemBytes,
				GPUAllowed:  true,
			}
			var e sched.Enforcer
			enforce = append(enforce, timeCalls(1, time.Microsecond, func() { e.Enforce(sin) })...)
		}
		tr.record("replay.sched", 0, op, t0, time.Now())

		t0 = time.Now()
		views := make([]fetch.ProjectView, len(q.servers))
		for p, srv := range q.servers {
			views[p] = fetch.ProjectView{Share: q.shares[p], PrioFetch: local.PrioFetch(p), Supplies: srv}
		}
		fin := fetch.Input{Hardware: q.hw, RR: &res, MinQueue: q.prefs.MinQueue, MaxQueue: q.prefs.MaxQueue, Projects: views}
		for _, kind := range []fetch.PolicyKind{fetch.JFOrig, fetch.JFHysteresis} {
			decide = append(decide, timeCalls(1000, time.Nanosecond, func() { fetch.Decide(kind, fin) })...)
		}
		tr.record("replay.fetch", 0, op, t0, time.Now())
	}
	ks = kernelStats{
		rrsimUs: median(rr), rrsimJobs: median(jobs), enforceUs: median(enforce),
		decideNs: median(decide), updateNs: median(update), dispatchUs: median(dispatch),
	}
	return ks, nil
}
