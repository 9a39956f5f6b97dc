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
	type refRank struct {
		task       *job.Task
		class      int
		key        float64
		running    bool
		receivedAt float64
	}
	less := func(a, b refRank) bool {
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
	var ranks []refRank
	for _, t := range in.Tasks {
		if t.Finished() || t.State == job.Downloading {
			continue
		}
		isGPU := t.Usage.IsGPU()
		if isGPU && !in.GPUAllowed {
			continue
		}
		r := refRank{task: t, running: t.State == job.Running, receivedAt: t.ReceivedAt}
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
	slices.SortStableFunc(ranks, func(a, b refRank) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})

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

// enforcePath names the route a pass took through Enforce: it stopped
// inside the selection buffer, or continued over the fit-filtered
// dropped ranks.
func enforcePath(e *Enforcer, in *Input) string {
	top := e.top[:min(len(e.ranks), topK)]
	sc := newScan(in)
	if _, full := sc.scan(in, top, nil); full || len(e.ranks) == len(top) {
		return "direct"
	}
	return "filtered"
}

// TestEnforceMatchesFullSort differentially checks the top-k selection
// against the frozen full-sort scheduler over random queues of 0–1000
// tasks, every policy, GPU on and off, and memory limits and fractional
// jobs that force the fallback. GPU hosts holding CPU-only queues never
// saturate their GPUs, so every deep pass on them falls back. One
// Enforcer serves every case, so a pass that leaked state from its
// scratch into the next would diverge. Both routes must be taken.
func TestEnforceMatchesFullSort(t *testing.T) {
	var e Enforcer
	paths := map[string]int{}
	check := func(what string, in Input) {
		t.Helper()
		want := referenceEnforce(in)
		got := e.Enforce(in).Run
		paths[enforcePath(&e, &in)]++
		if !slices.Equal(got, want) {
			t.Fatalf("%s (%d tasks, %v): got %v, want %v",
				what, len(in.Tasks), in.Policy, names(Decision{Run: got}), names(Decision{Run: want}))
		}
	}
	policies := []Policy{JSLocal, JSGlobal, JSWRR, JSLLF}
	randomInput := func(rng *rand.Rand, tasks []*job.Task, hw *host.Hardware) Input {
		prio := make([]float64, 4)
		for p := range prio {
			prio[p] = float64(rng.Intn(3))
		}
		return Input{
			Policy:     policies[rng.Intn(len(policies))],
			Hardware:   hw,
			Now:        float64(rng.Intn(3)) * 100,
			Tasks:      tasks,
			Endangered: func(t *job.Task) bool { return t.DeadlineFlagged },
			Prio:       func(p int, _ host.ProcType) float64 { return prio[p] },
			GPUAllowed: rng.Intn(3) != 0,
		}
	}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		if seed%4 == 0 {
			n = rng.Intn(1001)
		}
		gpus, memHeavy, thin := rng.Intn(2) == 0, rng.Intn(4) == 0, rng.Intn(6) == 0
		tasks := randomQueue(rng, n, gpus, memHeavy, thin)
		in := randomInput(rng, tasks, hwMixed(1+rng.Intn(8), rng.Intn(3)))
		if memHeavy {
			in.MaxMemBytes = 4e9
		}
		check(fmt.Sprint("seed ", seed), in)
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		// A GPU host with a deep CPU-only queue.
		tasks := randomQueue(rng, 50+rng.Intn(950), false, rng.Intn(3) == 0, false)
		check(fmt.Sprint("CPU-only queue on a GPU host, seed ", seed),
			randomInput(rng, tasks, hwMixed(1+rng.Intn(8), 1+rng.Intn(2))))
	}
	// Fully tied queues whose scan ends right around the buffer's
	// last slot: only stability picks which equal task fills it.
	for ncpu := 6; ncpu <= 10; ncpu++ {
		tasks := make([]*job.Task, 100)
		for i := range tasks {
			tasks[i] = cpuTask(0, fmt.Sprint("tie", i))
			tasks[i].Usage.AvgCPUs = 0.25
		}
		check(fmt.Sprint("tied queue on ", ncpu, " CPUs"), Input{
			Policy: JSLocal, Hardware: hwCPU(ncpu), Tasks: tasks,
			Endangered: noEndangered, Prio: flatPrio, GPUAllowed: true,
		})
	}
	t.Logf("routes taken: %v", paths)
	if paths["direct"] == 0 || paths["filtered"] == 0 {
		t.Fatalf("routes not both exercised: %v", paths)
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
