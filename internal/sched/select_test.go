package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bce/internal/host"
	"bce/internal/job"
)

// referenceEnforce is the frozen full-sort scheduler: rank every
// runnable task, stable-sort the whole list, then scan it. Enforcer's
// top-k selection must reproduce its Decision.Run exactly.
func referenceEnforce(in Input) []*job.Task {
	var ranks []rank
	for _, t := range in.Tasks {
		if t.Finished() || t.State == job.Downloading {
			continue
		}
		isGPU := t.Usage.IsGPU()
		if isGPU && !in.GPUAllowed {
			continue
		}
		r := rank{task: t, running: t.State == job.Running, receivedAt: t.ReceivedAt}
		endangered := in.Policy.UsesDeadlines() && in.Endangered != nil && in.Endangered(t)
		switch {
		case t.State == job.Running && t.SinceCheckpoint() > 0 && !t.CheckpointedSinceStart():
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
		case 1, 3:
			if in.Policy == JSLLF {
				r.key = (t.Deadline - in.Now) - t.EstRemaining()
			} else {
				r.key = t.Deadline
			}
		default:
			r.key = -in.Prio(t.Project, t.Usage.Type())
		}
		ranks = append(ranks, r)
	}
	slices.SortStableFunc(ranks, cmpRank)

	var remain [host.NumProcTypes]float64
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		remain[t] = float64(in.Hardware.Proc[t].Count)
	}
	memRemain := in.MaxMemBytes
	if memRemain <= 0 {
		memRemain = in.Hardware.MemBytes
	}
	var run []*job.Task
	const eps = 1e-9
	for _, r := range ranks {
		u := r.task.Usage
		if u.MemBytes > memRemain+eps {
			continue
		}
		if u.IsGPU() {
			if u.GPUUsage > remain[u.GPUType]+eps {
				continue
			}
			remain[u.GPUType] -= u.GPUUsage
			remain[host.CPU] -= u.AvgCPUs
		} else {
			if remain[host.CPU] <= eps {
				continue
			}
			remain[host.CPU] -= u.AvgCPUs
		}
		memRemain -= u.MemBytes
		run = append(run, r.task)
		if saturated(remain, in.Hardware) {
			break
		}
	}
	return run
}

// randomQueue builds a queue of n tasks whose sort keys collide on
// purpose: few projects and priorities, a handful of deadlines and
// arrival times, so stability decides most of the order. memHeavy
// gives many tasks working sets that the memory limit will reject,
// and thin makes CPU jobs so fractional that 32 of them cannot fill
// the host; both push the scan past the selection buffer.
func randomQueue(rng *rand.Rand, n int, gpus, memHeavy, thin bool) []*job.Task {
	tasks := make([]*job.Task, n)
	for i := range tasks {
		t := &job.Task{
			Name:             fmt.Sprint("t", i),
			Project:          rng.Intn(4),
			Usage:            job.Usage{AvgCPUs: 1},
			Duration:         1000,
			EstDuration:      float64(500 + 250*rng.Intn(4)),
			Deadline:         float64(1000 * (1 + rng.Intn(5))),
			ReceivedAt:       float64(100 * rng.Intn(6)),
			CheckpointPeriod: 60,
		}
		if rng.Intn(4) == 0 {
			t.Usage.AvgCPUs = float64(1+rng.Intn(4)) / 4
		}
		if thin {
			t.Usage.AvgCPUs = 0.05
		}
		if gpus && rng.Intn(3) == 0 {
			t.Usage = job.Usage{AvgCPUs: 0.2, GPUType: host.NvidiaGPU, GPUUsage: float64(1+rng.Intn(2)) / 2}
		}
		if memHeavy && rng.Intn(4) != 0 {
			t.Usage.MemBytes = 3e9
		} else {
			t.Usage.MemBytes = float64(rng.Intn(3)) * 1e8
		}
		switch rng.Intn(10) {
		case 0:
			t.State = job.Done
		case 1:
			t.State = job.Downloading
		case 2, 3:
			t.Start(0)
			if rng.Intn(2) == 0 {
				t.Advance(30, 30) // running, not yet checkpointed
			} else {
				t.Advance(60, 60) // running, at a checkpoint
			}
		}
		t.DeadlineFlagged = rng.Intn(3) == 0
		tasks[i] = t
	}
	return tasks
}

// TestEnforceMatchesFullSort differentially checks the top-k selection
// against the frozen full-sort scheduler over random queues of 0–1000
// tasks, every policy, GPU on and off, and memory limits and fractional
// jobs that force the fallback. One Enforcer serves every case, so a
// pass that leaked state from its scratch into the next would diverge.
// Both paths must be taken.
func TestEnforceMatchesFullSort(t *testing.T) {
	var e Enforcer
	fallbacks, direct := 0, 0
	policies := []Policy{JSLocal, JSGlobal, JSWRR, JSLLF}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		if seed%4 == 0 {
			n = rng.Intn(1001)
		}
		gpus, memHeavy, thin := rng.Intn(2) == 0, rng.Intn(4) == 0, rng.Intn(6) == 0
		tasks := randomQueue(rng, n, gpus, memHeavy, thin)
		prio := make([]float64, 4)
		for p := range prio {
			prio[p] = float64(rng.Intn(3))
		}
		in := Input{
			Policy:     policies[rng.Intn(len(policies))],
			Hardware:   hwMixed(1+rng.Intn(8), rng.Intn(3)),
			Now:        float64(rng.Intn(3)) * 100,
			Tasks:      tasks,
			Endangered: func(t *job.Task) bool { return t.DeadlineFlagged },
			Prio:       func(p int, _ host.ProcType) float64 { return prio[p] },
			GPUAllowed: rng.Intn(3) != 0,
		}
		if memHeavy {
			in.MaxMemBytes = 4e9
		}

		want := referenceEnforce(in)
		got := e.Enforce(in).Run
		// The pass fell back iff scanning the selection buffer alone
		// left the host unsaturated while ranks were dropped.
		top := e.top[:min(len(e.ranks), topK)]
		if _, full := scan(&in, top, nil); !full && len(e.ranks) > len(top) {
			fallbacks++
		} else {
			direct++
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d (%d tasks, %v): got %v, want %v",
				seed, n, in.Policy, names(Decision{Run: got}), names(Decision{Run: want}))
		}
	}
	// Fully tied queues whose scan ends right around the buffer's
	// last slot: only stability picks which equal task fills it.
	for ncpu := 6; ncpu <= 10; ncpu++ {
		tasks := make([]*job.Task, 100)
		for i := range tasks {
			tasks[i] = cpuTask(0, fmt.Sprint("tie", i))
			tasks[i].Usage.AvgCPUs = 0.25
		}
		in := Input{
			Policy: JSLocal, Hardware: hwCPU(ncpu), Tasks: tasks,
			Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
		}
		if got, want := e.Enforce(in).Run, referenceEnforce(in); !slices.Equal(got, want) {
			t.Fatalf("tied queue on %d CPUs: got %v, want %v", ncpu, names(Decision{Run: got}), names(Decision{Run: want}))
		}
	}
	t.Logf("%d passes fell back to the full sort, %d did not", fallbacks, direct)
	if fallbacks == 0 || direct == 0 {
		t.Fatalf("paths not both exercised: %d fallbacks, %d direct", fallbacks, direct)
	}
}

// BenchmarkEnforce measures one scheduling pass over a deep queue (the
// job-heavy host the selection buffer is for) and a shallow one, with
// a reused Enforcer as the client keeps.
func BenchmarkEnforce(b *testing.B) {
	for _, n := range []int{20, 800} {
		b.Run(fmt.Sprint("tasks", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			in := Input{
				Policy:     JSGlobal,
				Hardware:   hwCPU(8),
				Tasks:      randomQueue(rng, n, false, false, false),
				Endangered: func(t *job.Task) bool { return t.DeadlineFlagged },
				Prio:       func(p int, _ host.ProcType) float64 { return float64(p) },
				GPUAllowed: true,
			}
			var e Enforcer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Enforce(in)
			}
		})
	}
}
