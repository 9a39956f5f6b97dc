package rrsim

import (
	"math"
	"testing"
	"testing/quick"

	"bce/internal/host"
	"bce/internal/job"
)

func mkJob(p int, instances, remaining, deadline float64) *Job {
	return &Job{Project: p, Type: host.CPU, Instances: instances, Remaining: remaining, Deadline: deadline}
}

func mkGPUJob(p int, instances, remaining, deadline float64) *Job {
	j := mkJob(p, instances, remaining, deadline)
	j.Type = host.NvidiaGPU
	return j
}

func cpuHost(n int) *host.Hardware {
	h := host.StdHost(n, 1e9, 0, 0)
	return &h.Hardware
}

func mixedHost(ncpu, ngpu int) *host.Hardware {
	h := host.StdHost(ncpu, 1e9, ngpu, 10e9)
	return &h.Hardware
}

// allocateCPU runs allocate for the CPU type and returns its output.
func (s *Simulator) allocateCPU(demand, weight []float64, total float64) []float64 {
	s.allocate(host.CPU, demand, weight, total)
	return s.alloc[host.CPU]
}

func TestAllocateBasics(t *testing.T) {
	allocate := New().allocateCPU
	// Two equal-weight demands that both exceed fair share split evenly.
	a := allocate([]float64{10, 10}, []float64{1, 1}, 4)
	if math.Abs(a[0]-2) > 1e-9 || math.Abs(a[1]-2) > 1e-9 {
		t.Fatalf("equal split = %v, want [2 2]", a)
	}
	// A small demand caps and its excess flows to the other.
	a = allocate([]float64{1, 10}, []float64{1, 1}, 4)
	if math.Abs(a[0]-1) > 1e-9 || math.Abs(a[1]-3) > 1e-9 {
		t.Fatalf("capped split = %v, want [1 3]", a)
	}
	// Weighted split 3:1.
	a = allocate([]float64{10, 10}, []float64{3, 1}, 4)
	if math.Abs(a[0]-3) > 1e-9 || math.Abs(a[1]-1) > 1e-9 {
		t.Fatalf("weighted split = %v, want [3 1]", a)
	}
	// Zero total.
	a = allocate([]float64{5}, []float64{1}, 0)
	if a[0] != 0 {
		t.Fatalf("zero total allocated %v", a)
	}
}

func TestAllocateProperties(t *testing.T) {
	sim := New()
	f := func(d8, w8 [6]uint8, tot uint8) bool {
		demand := make([]float64, 6)
		weight := make([]float64, 6)
		var dsum float64
		for i := range demand {
			demand[i] = float64(d8[i]) / 10
			weight[i] = float64(w8[i])
			dsum += demand[i]
		}
		total := float64(tot) / 10
		alloc := sim.allocateCPU(demand, weight, total)
		var asum float64
		for i := range alloc {
			if alloc[i] < -1e-9 || alloc[i] > demand[i]+1e-9 {
				return false
			}
			asum += alloc[i]
		}
		if asum > total+1e-6 {
			return false
		}
		// Work-conserving: all of min(total, feasible demand) is used,
		// where feasible demand counts only positive-weight entries.
		var feasible float64
		for i := range demand {
			if weight[i] > 0 {
				feasible += demand[i]
			}
		}
		want := math.Min(total, feasible)
		return math.Abs(asum-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleJobFinishTime(t *testing.T) {
	j := mkJob(0, 1, 1000, 5000)
	res := Run(Input{
		Hardware: cpuHost(1), Shares: []float64{1},
		HorizonMin: 100, HorizonMax: 200, Jobs: []*Job{j},
	})
	if math.Abs(j.ProjectedFinish-1000) > 1e-6 {
		t.Fatalf("finish = %v, want 1000", j.ProjectedFinish)
	}
	if j.Endangered {
		t.Fatal("job with ample slack flagged endangered")
	}
	// One instance busy for 1000 s >> horizons: no shortfall, SAT runs
	// past both horizons.
	if res.ShortfallMin[host.CPU] != 0 || res.ShortfallMax[host.CPU] != 0 {
		t.Fatalf("shortfall = %v/%v, want 0", res.ShortfallMin[host.CPU], res.ShortfallMax[host.CPU])
	}
	if res.Saturated[host.CPU] < 1000 {
		t.Fatalf("SAT = %v, want >= 1000", res.Saturated[host.CPU])
	}
	if res.IdleNow[host.CPU] != 0 {
		t.Fatalf("IdleNow = %v, want 0", res.IdleNow[host.CPU])
	}
}

func TestEndangeredClassification(t *testing.T) {
	// Two equal-share projects on one CPU: each runs at rate 1/2.
	// Project 0's job (1000 s of work) finishes at 2000.
	tight := mkJob(0, 1, 1000, 1500) // misses
	loose := mkJob(1, 1, 1000, 2500) // fits
	Run(Input{
		Hardware: cpuHost(1), Shares: []float64{1, 1},
		Jobs: []*Job{tight, loose},
	})
	if !tight.Endangered {
		t.Fatalf("tight job (finish %v, deadline 1500) not endangered", tight.ProjectedFinish)
	}
	if loose.Endangered {
		t.Fatalf("loose job (finish %v, deadline 2500) endangered", loose.ProjectedFinish)
	}
}

func TestWRRSharesDetermineFinishOrder(t *testing.T) {
	// Shares 3:1 on one CPU; equal work. High-share project finishes
	// at w/(3/4) = 1333..., the other continues alone and ends at 2000.
	a := mkJob(0, 1, 1000, 1e9)
	b := mkJob(1, 1, 1000, 1e9)
	Run(Input{Hardware: cpuHost(1), Shares: []float64{3, 1}, Jobs: []*Job{a, b}})
	if math.Abs(a.ProjectedFinish-4000.0/3) > 1e-6 {
		t.Fatalf("a finish = %v, want 1333.3", a.ProjectedFinish)
	}
	if math.Abs(b.ProjectedFinish-2000) > 1e-6 {
		t.Fatalf("b finish = %v, want 2000 (total work conserved)", b.ProjectedFinish)
	}
}

func TestShortfallEmptyQueue(t *testing.T) {
	res := Run(Input{
		Hardware: cpuHost(4), Shares: []float64{1},
		HorizonMin: 100, HorizonMax: 1000,
	})
	if res.ShortfallMin[host.CPU] != 400 {
		t.Fatalf("min shortfall = %v, want 4*100", res.ShortfallMin[host.CPU])
	}
	if res.ShortfallMax[host.CPU] != 4000 {
		t.Fatalf("max shortfall = %v, want 4*1000", res.ShortfallMax[host.CPU])
	}
	if res.Saturated[host.CPU] != 0 {
		t.Fatalf("SAT = %v, want 0", res.Saturated[host.CPU])
	}
	if res.IdleNow[host.CPU] != 4 {
		t.Fatalf("IdleNow = %v, want 4", res.IdleNow[host.CPU])
	}
}

func TestShortfallPartialQueue(t *testing.T) {
	// 2 CPUs, one job of 50 s. Busy: 1 instance for 50 s.
	// Horizon 100: idle = 1*50 (while job runs) + 2*50 (after) = 150.
	j := mkJob(0, 1, 50, 1e9)
	res := Run(Input{
		Hardware: cpuHost(2), Shares: []float64{1},
		HorizonMin: 100, HorizonMax: 100, Jobs: []*Job{j},
	})
	if math.Abs(res.ShortfallMin[host.CPU]-150) > 1e-6 {
		t.Fatalf("shortfall = %v, want 150", res.ShortfallMin[host.CPU])
	}
}

func TestSaturationEndsWhenJobEnds(t *testing.T) {
	// 1 CPU, one 300 s job, then idle.
	j := mkJob(0, 1, 300, 1e9)
	res := Run(Input{
		Hardware: cpuHost(1), Shares: []float64{1},
		HorizonMin: 1000, HorizonMax: 1000, Jobs: []*Job{j},
	})
	if math.Abs(res.Saturated[host.CPU]-300) > 1e-6 {
		t.Fatalf("SAT = %v, want 300", res.Saturated[host.CPU])
	}
}

func TestGPUJobsUseGPU(t *testing.T) {
	g := mkGPUJob(0, 1, 100, 1e9)
	c := mkJob(1, 1, 100, 1e9)
	res := Run(Input{
		Hardware: mixedHost(4, 1), Shares: []float64{1, 1},
		HorizonMin: 50, HorizonMax: 50, Jobs: []*Job{g, c},
	})
	// GPU job gets the whole GPU (only GPU demand), CPU job a whole CPU.
	if math.Abs(g.ProjectedFinish-100) > 1e-6 {
		t.Fatalf("GPU job finish = %v, want 100", g.ProjectedFinish)
	}
	if math.Abs(c.ProjectedFinish-100) > 1e-6 {
		t.Fatalf("CPU job finish = %v, want 100", c.ProjectedFinish)
	}
	// 3 idle CPUs over 50 s.
	if math.Abs(res.ShortfallMin[host.CPU]-150) > 1e-6 {
		t.Fatalf("CPU shortfall = %v, want 150", res.ShortfallMin[host.CPU])
	}
	if res.ShortfallMin[host.NvidiaGPU] != 0 {
		t.Fatalf("GPU shortfall = %v, want 0", res.ShortfallMin[host.NvidiaGPU])
	}
}

func TestProjectWithoutShareGetsNothing(t *testing.T) {
	j := mkJob(0, 1, 100, 1e9)
	// Project 0 has zero share: its job can never run.
	Run(Input{Hardware: cpuHost(1), Shares: []float64{0}, Jobs: []*Job{j}})
	if !math.IsInf(j.ProjectedFinish, 1) || !j.Endangered {
		t.Fatalf("zero-share job: finish=%v endangered=%v, want inf/true", j.ProjectedFinish, j.Endangered)
	}
}

func TestGPUJobWithoutGPUNeverFinishes(t *testing.T) {
	g := mkGPUJob(0, 1, 100, 1e9)
	Run(Input{Hardware: cpuHost(2), Shares: []float64{1}, Jobs: []*Job{g}})
	if !math.IsInf(g.ProjectedFinish, 1) || !g.Endangered {
		t.Fatal("GPU job on GPU-less host should be endangered, never finishing")
	}
}

func TestOnFracSlowsExecution(t *testing.T) {
	j := mkJob(0, 1, 100, 1e9)
	in := Input{Hardware: cpuHost(1), Shares: []float64{1}, Jobs: []*Job{j}}
	in.OnFrac[host.CPU] = 0.5
	Run(in)
	if math.Abs(j.ProjectedFinish-200) > 1e-6 {
		t.Fatalf("finish with 50%% availability = %v, want 200", j.ProjectedFinish)
	}
}

func TestDeadlineMargin(t *testing.T) {
	j := mkJob(0, 1, 100, 110)
	in := Input{Hardware: cpuHost(1), Shares: []float64{1}, Jobs: []*Job{j}, DeadlineMargin: 20}
	Run(in)
	if !j.Endangered {
		t.Fatal("margin of 20 should flag a job finishing 10 s before deadline")
	}
}

func TestAlreadyFinishedJob(t *testing.T) {
	j := mkJob(0, 1, 0, 100)
	res := Run(Input{Now: 50, Hardware: cpuHost(1), Shares: []float64{1}, Jobs: []*Job{j}})
	if j.ProjectedFinish != 50 || j.Endangered {
		t.Fatalf("finished job: finish=%v endangered=%v", j.ProjectedFinish, j.Endangered)
	}
	if res.NumEndangered != 0 {
		t.Fatal("finished job counted endangered")
	}
}

// A queue entry that is already finished when the simulation starts
// cannot miss its deadline, even when Now is past Deadline − margin;
// counting it endangered inflates NumEndangered and can trigger
// needless EDF promotion.
func TestFinishedJobPastDeadlineNotEndangered(t *testing.T) {
	done := mkJob(0, 1, 0, 100) // finished; deadline long gone
	live := mkJob(0, 1, 10, 1e9)
	res := Run(Input{Now: 500, Hardware: cpuHost(1), Shares: []float64{1},
		DeadlineMargin: 120, Jobs: []*Job{done, live}})
	if done.Endangered {
		t.Fatal("finished job past its deadline flagged endangered")
	}
	if done.ProjectedFinish != 500 {
		t.Fatalf("finished job ProjectedFinish = %v, want Now", done.ProjectedFinish)
	}
	if live.Endangered || res.NumEndangered != 0 {
		t.Fatalf("spurious endangered count: %d", res.NumEndangered)
	}
}

func TestMultiInstanceJob(t *testing.T) {
	// A 4-CPU job on a 4-CPU host takes exactly its duration.
	j := mkJob(0, 4, 100, 1e9)
	res := Run(Input{Hardware: cpuHost(4), Shares: []float64{1}, Jobs: []*Job{j},
		HorizonMin: 100, HorizonMax: 100})
	if math.Abs(j.ProjectedFinish-100) > 1e-6 {
		t.Fatalf("finish = %v, want 100", j.ProjectedFinish)
	}
	if res.ShortfallMin[host.CPU] != 0 {
		t.Fatalf("shortfall = %v, want 0", res.ShortfallMin[host.CPU])
	}
}

func TestFractionalGPUJobsShare(t *testing.T) {
	// Two 0.5-GPU jobs from one project run concurrently on one GPU.
	a := mkGPUJob(0, 0.5, 100, 1e9)
	b := mkGPUJob(0, 0.5, 100, 1e9)
	Run(Input{Hardware: mixedHost(1, 1), Shares: []float64{1}, Jobs: []*Job{a, b}})
	if math.Abs(a.ProjectedFinish-100) > 1e-6 || math.Abs(b.ProjectedFinish-100) > 1e-6 {
		t.Fatalf("fractional jobs finish at %v/%v, want 100/100", a.ProjectedFinish, b.ProjectedFinish)
	}
}

func TestTraceRecordsSteps(t *testing.T) {
	a := mkJob(0, 1, 100, 1e9)
	b := mkJob(0, 1, 200, 1e9)
	res := Run(Input{Hardware: cpuHost(2), Shares: []float64{1},
		HorizonMin: 400, HorizonMax: 400, Jobs: []*Job{a, b}, Trace: true})
	if len(res.Trace) < 2 {
		t.Fatalf("trace has %d steps, want >= 2", len(res.Trace))
	}
	// First step: both busy; contiguous, nonoverlapping, busy <= count.
	if res.Trace[0].Busy[host.CPU] != 2 {
		t.Fatalf("first step busy = %v, want 2", res.Trace[0].Busy[host.CPU])
	}
	for i := 1; i < len(res.Trace); i++ {
		if math.Abs(res.Trace[i].Start-res.Trace[i-1].End) > 1e-9 {
			t.Fatal("trace steps not contiguous")
		}
	}
}

// Property: shortfall over the max horizon is bounded by
// instances × horizon, never negative, and >= shortfall over min horizon.
func TestPropertyShortfallBounds(t *testing.T) {
	f := func(njobs uint8, work [8]uint16, deadlineSlack [8]uint8, ncpu uint8) bool {
		n := int(ncpu%4) + 1
		k := int(njobs % 8)
		jobs := make([]*Job, 0, k)
		for i := 0; i < k; i++ {
			w := float64(work[i]%5000) + 1
			jobs = append(jobs, mkJob(i%3, 1, w, w+float64(deadlineSlack[i])*100))
		}
		in := Input{
			Hardware: cpuHost(n), Shares: []float64{1, 2, 3},
			HorizonMin: 500, HorizonMax: 2000, Jobs: jobs,
		}
		res := Run(in)
		for tt := host.ProcType(0); tt < host.NumProcTypes; tt++ {
			maxSF := float64(in.Hardware.Proc[tt].Count) * in.HorizonMax
			if res.ShortfallMax[tt] < -1e-9 || res.ShortfallMax[tt] > maxSF+1e-6 {
				return false
			}
			if res.ShortfallMin[tt] > res.ShortfallMax[tt]+1e-6 {
				return false
			}
			if res.Saturated[tt] < 0 {
				return false
			}
			if res.IdleNow[tt] < 0 || res.IdleNow[tt] > float64(in.Hardware.Proc[tt].Count)+1e-9 {
				return false
			}
		}
		// All jobs got a projection.
		for _, j := range jobs {
			if j.ProjectedFinish == 0 && j.Remaining > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding work never decreases any job's projected finish time
// (more contention can only delay).
func TestPropertyMoreLoadDelays(t *testing.T) {
	f := func(w1, w2 uint16) bool {
		base := mkJob(0, 1, float64(w1%1000)+10, 1e9)
		solo := Run(Input{Hardware: cpuHost(1), Shares: []float64{1, 1}, Jobs: []*Job{base}})
		_ = solo
		f1 := base.ProjectedFinish

		again := mkJob(0, 1, float64(w1%1000)+10, 1e9)
		extra := mkJob(1, 1, float64(w2%1000)+10, 1e9)
		Run(Input{Hardware: cpuHost(1), Shares: []float64{1, 1}, Jobs: []*Job{again, extra}})
		return again.ProjectedFinish >= f1-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewJobCapturesTask(t *testing.T) {
	tk := &job.Task{
		Name: "x", Project: 2,
		Usage:    job.Usage{AvgCPUs: 0.3, GPUType: host.NvidiaGPU, GPUUsage: 0.5},
		Duration: 100, EstDuration: 150, Deadline: 999,
	}
	j := NewJob(tk)
	if j.Project != 2 || j.Type != host.NvidiaGPU || j.Instances != 0.5 {
		t.Fatalf("NewJob capture wrong: %+v", j)
	}
	if j.Remaining != 150 || j.Deadline != 999 {
		t.Fatalf("NewJob remaining/deadline wrong: %+v", j)
	}
}

func TestATIJobsSeparateFromNvidia(t *testing.T) {
	// Host with both GPU kinds; jobs drain independently.
	h := host.StdHost(2, 1e9, 1, 10e9)
	h.Hardware.Proc[host.AtiGPU] = host.Resource{Count: 1, FLOPSPerInst: 5e9}
	nv := mkGPUJob(0, 1, 100, 1e9)
	ati := mkGPUJob(1, 1, 200, 1e9)
	ati.Type = host.AtiGPU
	res := Run(Input{Hardware: &h.Hardware, Shares: []float64{1, 1},
		HorizonMin: 300, HorizonMax: 300, Jobs: []*Job{nv, ati}})
	if math.Abs(nv.ProjectedFinish-100) > 1e-6 || math.Abs(ati.ProjectedFinish-200) > 1e-6 {
		t.Fatalf("GPU kinds interfered: %v / %v", nv.ProjectedFinish, ati.ProjectedFinish)
	}
	if res.Saturated[host.NvidiaGPU] != 100 || res.Saturated[host.AtiGPU] != 200 {
		t.Fatalf("per-kind SAT wrong: %v", res.Saturated)
	}
}

func TestArrivalOrderSeating(t *testing.T) {
	// One project, one CPU, two jobs: the first-queued job is seated,
	// the second waits (no time-slicing within a project).
	first := mkJob(0, 1, 100, 1e9)
	second := mkJob(0, 1, 100, 1e9)
	Run(Input{Hardware: cpuHost(1), Shares: []float64{1}, Jobs: []*Job{first, second}})
	if math.Abs(first.ProjectedFinish-100) > 1e-6 {
		t.Fatalf("first job finish %v, want 100 (seated immediately)", first.ProjectedFinish)
	}
	if math.Abs(second.ProjectedFinish-200) > 1e-6 {
		t.Fatalf("second job finish %v, want 200 (waits for the first)", second.ProjectedFinish)
	}
}

func TestPartialSeatTimeslices(t *testing.T) {
	// Two equal-share projects, one CPU, one job each: each project's
	// allocation is 0.5 instances, so each job runs at half rate.
	a := mkJob(0, 1, 100, 1e9)
	b := mkJob(1, 1, 100, 1e9)
	Run(Input{Hardware: cpuHost(1), Shares: []float64{1, 1}, Jobs: []*Job{a, b}})
	if math.Abs(a.ProjectedFinish-200) > 1e-6 || math.Abs(b.ProjectedFinish-200) > 1e-6 {
		t.Fatalf("finishes %v/%v, want 200/200 (half rate each)", a.ProjectedFinish, b.ProjectedFinish)
	}
}

func TestHorizonMaxClampedToMin(t *testing.T) {
	res := Run(Input{Hardware: cpuHost(1), Shares: []float64{1},
		HorizonMin: 1000, HorizonMax: 10}) // max < min is repaired
	if res.ShortfallMax[host.CPU] < res.ShortfallMin[host.CPU] {
		t.Fatalf("max shortfall %v < min %v", res.ShortfallMax[host.CPU], res.ShortfallMin[host.CPU])
	}
}

func TestManyProjectsShareSplit(t *testing.T) {
	// 10 equal projects on 2 CPUs: each project's job runs at 0.2 rate.
	var jobs []*Job
	shares := make([]float64, 10)
	for i := range shares {
		shares[i] = 1
		jobs = append(jobs, mkJob(i, 1, 100, 1e9))
	}
	Run(Input{Hardware: cpuHost(2), Shares: shares, Jobs: jobs})
	for i, j := range jobs {
		if math.Abs(j.ProjectedFinish-500) > 1e-6 {
			t.Fatalf("job %d finish %v, want 500", i, j.ProjectedFinish)
		}
	}
}

// Property: total work is conserved — the sum of (instance-seconds
// completed by each finish time) never exceeds capacity × elapsed.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(work [6]uint16, ncpu uint8) bool {
		n := int(ncpu%3) + 1
		var jobs []*Job
		var total float64
		for i, w := range work {
			r := float64(w%2000) + 1
			jobs = append(jobs, mkJob(i%2, 1, r, 1e12))
			total += r
		}
		Run(Input{Hardware: cpuHost(n), Shares: []float64{1, 1}, Jobs: jobs})
		var last float64
		for _, j := range jobs {
			if j.ProjectedFinish > last {
				last = j.ProjectedFinish
			}
		}
		// All work fits within capacity: last >= total/n.
		return last >= total/float64(n)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
