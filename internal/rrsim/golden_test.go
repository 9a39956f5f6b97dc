package rrsim

// This file freezes the pre-Simulator implementation of Run (the
// straightforward allocate-per-step, scan-all-jobs version) as a
// reference fixture. The Simulator rewrite must produce bit-identical
// results — the emulator's figures of merit are reproduced to the last
// bit across runs, so even last-ulp drift in rr_sim would show up as a
// spurious emulation difference. TestGoldenCompare checks equality on
// seeded random workloads; BenchmarkRRSimReference keeps the old cost
// measurable next to BenchmarkRRSim.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bce/internal/host"
	"bce/internal/invariant"
)

// referenceAllocate is the frozen pre-Simulator allocate.
func referenceAllocate(demand, weight []float64, total float64) []float64 {
	n := len(demand)
	alloc := make([]float64, n)
	if total <= 0 {
		return alloc
	}
	active := make([]bool, n)
	nActive := 0
	for i := range demand {
		if demand[i] > 0 && weight[i] > 0 {
			active[i] = true
			nActive++
		}
	}
	remaining := total
	for iter := 0; iter < n+1 && nActive > 0 && remaining > 1e-12; iter++ {
		var wsum float64
		for i := range demand {
			if active[i] {
				wsum += weight[i]
			}
		}
		if wsum <= 0 {
			break
		}
		capped := false
		for i := range demand {
			if !active[i] {
				continue
			}
			fair := remaining * weight[i] / wsum
			if alloc[i]+fair >= demand[i]-1e-12 {
				remaining -= demand[i] - alloc[i]
				alloc[i] = demand[i]
				active[i] = false
				nActive--
				capped = true
			}
		}
		if !capped {
			for i := range demand {
				if active[i] {
					alloc[i] += remaining * weight[i] / wsum
				}
			}
			remaining = 0
		}
	}
	return alloc
}

// referenceRun is the frozen pre-Simulator Run (with the finished-job
// endangered fix, which landed just before the rewrite).
func referenceRun(in Input) *Result {
	res := &Result{}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if in.OnFrac[t] == 0 {
			in.OnFrac[t] = 1
		}
	}
	if in.HorizonMax < in.HorizonMin {
		in.HorizonMax = in.HorizonMin
	}

	nproj := len(in.Shares)
	rem := make([]float64, len(in.Jobs))
	unfinished := 0
	for i, j := range in.Jobs {
		rem[i] = j.Remaining * j.Instances
		if rem[i] > 0 {
			unfinished++
		} else {
			j.ProjectedFinish = in.Now
			j.Endangered = false
		}
	}

	satOpen := [host.NumProcTypes]bool{}
	firstStep := true
	elapsed := 0.0

	demand := make([]float64, nproj)
	rates := make([]float64, len(in.Jobs))

	for step := 0; step < maxSteps; step++ {
		var busy [host.NumProcTypes]float64
		for i := range rates {
			rates[i] = 0
		}
		anyRate := false
		for t := host.ProcType(0); t < host.NumProcTypes; t++ {
			n := float64(in.Hardware.Proc[t].Count)
			if n == 0 {
				continue
			}
			for p := range demand {
				demand[p] = 0
			}
			for i, j := range in.Jobs {
				if j.Type == t && rem[i] > 0 && j.Project < nproj {
					demand[j.Project] += j.Instances
				}
			}
			alloc := referenceAllocate(demand, in.Shares, n)
			for p, a := range alloc {
				busy[t] += a
				if a <= 0 {
					continue
				}
				for i, j := range in.Jobs {
					if a <= 1e-12 {
						break
					}
					if j.Type != t || rem[i] <= 0 || j.Project != p {
						continue
					}
					r := math.Min(j.Instances, a)
					a -= r
					rates[i] = r * in.OnFrac[t]
					anyRate = true
				}
			}
		}

		if firstStep {
			for t := host.ProcType(0); t < host.NumProcTypes; t++ {
				n := float64(in.Hardware.Proc[t].Count)
				res.IdleNow[t] = math.Max(0, n-busy[t])
				satOpen[t] = n > 0 && busy[t] >= n-1e-9
			}
			firstStep = false
		}

		dt := math.Inf(1)
		for i := range in.Jobs {
			if rem[i] > 0 && rates[i] > 0 {
				if d := rem[i] / rates[i]; d < dt {
					dt = d
				}
			}
		}
		atEnd := false
		if unfinished == 0 || !anyRate || math.IsInf(dt, 1) {
			dt = in.HorizonMax - elapsed
			atEnd = true
			if dt <= 0 {
				break
			}
		}

		for t := host.ProcType(0); t < host.NumProcTypes; t++ {
			n := float64(in.Hardware.Proc[t].Count)
			if n == 0 {
				continue
			}
			idle := math.Max(0, n-busy[t])
			if ov := overlap(elapsed, elapsed+dt, 0, in.HorizonMin); ov > 0 {
				res.ShortfallMin[t] += idle * ov
			}
			if ov := overlap(elapsed, elapsed+dt, 0, in.HorizonMax); ov > 0 {
				res.ShortfallMax[t] += idle * ov
			}
			if satOpen[t] {
				if busy[t] >= n-1e-9 {
					res.Saturated[t] += dt
				} else {
					satOpen[t] = false
				}
			}
		}
		if in.Trace {
			res.Trace = append(res.Trace, TraceStep{
				Start: in.Now + elapsed, End: in.Now + elapsed + dt, Busy: busy,
			})
		}

		for i, j := range in.Jobs {
			if rem[i] <= 0 || rates[i] <= 0 {
				continue
			}
			rem[i] -= rates[i] * dt
			if rem[i] <= 1e-9 {
				rem[i] = 0
				unfinished--
				j.ProjectedFinish = in.Now + elapsed + dt
				j.Endangered = j.ProjectedFinish > j.Deadline-in.DeadlineMargin
				if j.Endangered {
					res.NumEndangered++
				}
			}
		}
		elapsed += dt
		if atEnd {
			break
		}
	}

	for i, j := range in.Jobs {
		if rem[i] > 0 {
			j.ProjectedFinish = math.Inf(1)
			j.Endangered = true
			res.NumEndangered++
		}
	}
	return res
}

// randomWorkload builds a randomized Input plus an identical deep copy
// of its job slice, so reference and Simulator each get private output
// fields.
func randomWorkload(rng *rand.Rand) (Input, []*Job, []*Job) {
	nproj := 1 + rng.Intn(8)
	shares := make([]float64, nproj)
	for p := range shares {
		switch rng.Intn(4) {
		case 0:
			shares[p] = 0 // no share: its jobs can never run
		default:
			shares[p] = math.Trunc(rng.Float64()*1000) / 10
		}
	}
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: rng.Intn(9), FLOPSPerInst: 1e9}
	if rng.Intn(2) == 0 {
		hw.Proc[host.NvidiaGPU] = host.Resource{Count: rng.Intn(3), FLOPSPerInst: 1e11}
	}
	if rng.Intn(3) == 0 {
		hw.Proc[host.AtiGPU] = host.Resource{Count: rng.Intn(2), FLOPSPerInst: 5e10}
	}

	now := rng.Float64() * 1e6
	in := Input{
		Now:            now,
		Hardware:       hw,
		Shares:         shares,
		HorizonMin:     rng.Float64() * 3600,
		HorizonMax:     rng.Float64() * 86400,
		DeadlineMargin: float64(rng.Intn(3)) * 60,
		Trace:          rng.Intn(3) == 0,
	}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if rng.Intn(2) == 0 {
			in.OnFrac[t] = 0.1 + 0.9*rng.Float64()
		}
	}

	njobs := rng.Intn(120)
	a := make([]*Job, njobs)
	b := make([]*Job, njobs)
	for i := range a {
		j := Job{
			// Occasionally nproj itself: a project with no share entry.
			Project:   rng.Intn(nproj + 1),
			Type:      host.CPU,
			Instances: 1,
			Remaining: rng.Float64() * 20000,
			Deadline:  now + rng.Float64()*2*86400 - 3600,
		}
		switch rng.Intn(4) {
		case 0:
			j.Type = host.NvidiaGPU
			j.Instances = 1
		case 1:
			if rng.Intn(2) == 0 {
				j.Type = host.AtiGPU
			}
			j.Instances = 0.5 + rng.Float64()*3.5 // multicore / fractional
		}
		if rng.Intn(10) == 0 {
			j.Remaining = 0 // finished before the simulation starts
		}
		cp := j
		a[i] = &j
		b[i] = &cp
	}
	in.Jobs = a
	return in, a, b
}

// deepWorkload builds a job-heavy queue (500–800 jobs, 2–4 projects)
// in the shape the client's deep-queue hosts produce, plus the same
// deep copy randomWorkload returns. One project gets a large share
// but only a few jobs, so as they finish it goes from uncapped (its
// fair share below its demand) to capped and then empty, forcing the
// per-type allocation to be recomputed mid-run; the others keep the
// allocation uniform for long stretches. Remaining times come from a
// coarse grid, so completions often coincide. fractional mixes
// non-integral Instances into every group, which then take the
// ordered-rescan path instead of the exact one.
func deepWorkload(rng *rand.Rand, fractional bool) (Input, []*Job, []*Job) {
	nproj := 2 + rng.Intn(3)
	shares := make([]float64, nproj)
	for p := range shares {
		shares[p] = float64(1 + rng.Intn(3))
	}
	small := rng.Intn(nproj)
	shares[small] = float64(3 * nproj)
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: 4 + rng.Intn(5), FLOPSPerInst: 1e9}
	if rng.Intn(2) == 0 {
		hw.Proc[host.NvidiaGPU] = host.Resource{Count: 1 + rng.Intn(2), FLOPSPerInst: 1e11}
	}
	now := float64(rng.Intn(1000)) * 60
	in := Input{
		Now:            now,
		Hardware:       hw,
		Shares:         shares,
		HorizonMin:     3600,
		HorizonMax:     86400,
		DeadlineMargin: 120,
	}
	njobs := 500 + rng.Intn(301)
	a := make([]*Job, njobs)
	b := make([]*Job, njobs)
	smallLeft := 4 + rng.Intn(12)
	for i := range a {
		p := rng.Intn(nproj)
		for p == small && smallLeft == 0 {
			p = rng.Intn(nproj)
		}
		if p == small {
			smallLeft--
		}
		j := Job{
			Project:   p,
			Type:      host.CPU,
			Instances: 1,
			Remaining: float64(600 * (1 + rng.Intn(8))),
			Deadline:  now + float64(rng.Intn(48))*3600,
		}
		if hw.Proc[host.NvidiaGPU].Count > 0 && rng.Intn(6) == 0 {
			j.Type = host.NvidiaGPU
		}
		if fractional && rng.Intn(3) == 0 {
			j.Instances = float64(1+rng.Intn(8)) / 4
		}
		cp := j
		a[i] = &j
		b[i] = &cp
	}
	in.Jobs = a
	return in, a, b
}

// compareRun runs the reference on jobsRef and sim on jobsNew and
// requires bit-identical outputs.
func compareRun(t *testing.T, sim *Simulator, label string, in Input, jobsNew, jobsRef []*Job) {
	t.Helper()
	in.Jobs = jobsRef
	want := referenceRun(in)
	in.Jobs = jobsNew
	got := sim.Run(in)

	if got.ShortfallMin != want.ShortfallMin || got.ShortfallMax != want.ShortfallMax ||
		got.Saturated != want.Saturated || got.IdleNow != want.IdleNow ||
		got.NumEndangered != want.NumEndangered {
		t.Fatalf("%s: Result mismatch\n got %+v\nwant %+v", label, got, want)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d != %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range got.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace step %d: got %+v want %+v", label, i, got.Trace[i], want.Trace[i])
		}
	}
	for i := range jobsNew {
		g, w := jobsNew[i], jobsRef[i]
		// Compare bit patterns so +Inf == +Inf and the test would
		// catch a NaN regression too.
		if math.Float64bits(g.ProjectedFinish) != math.Float64bits(w.ProjectedFinish) ||
			g.Endangered != w.Endangered {
			t.Fatalf("%s job %d: got finish=%v endangered=%v, want finish=%v endangered=%v",
				label, i, g.ProjectedFinish, g.Endangered, w.ProjectedFinish, w.Endangered)
		}
	}
}

// TestGoldenCompare checks that the Simulator produces bit-identical
// results to the frozen reference implementation on seeded random
// workloads — every Result field and every per-job output, compared
// with ==, no tolerance. One Simulator serves every case, and the
// deep-queue families are interleaved with small random workloads, so
// scratch sized by a large run is reused (and must be reset) by small
// ones and vice versa.
func TestGoldenCompare(t *testing.T) {
	sim := New() // reused across cases to exercise scratch-buffer reuse
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in, jobsNew, jobsRef := randomWorkload(rng)
		compareRun(t, sim, fmt.Sprintf("seed %d", seed), in, jobsNew, jobsRef)
	}
	n := 24
	if testing.Short() {
		n = 6
	}
	for seed := int64(0); seed < int64(n); seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		fractional := seed%2 == 1
		in, jobsNew, jobsRef := deepWorkload(rng, fractional)
		compareRun(t, sim, fmt.Sprintf("deep seed %d (fractional %v)", seed, fractional), in, jobsNew, jobsRef)
		in, jobsNew, jobsRef = randomWorkload(rng)
		compareRun(t, sim, fmt.Sprintf("deep seed %d, small follow-up", seed), in, jobsNew, jobsRef)
	}
}

// TestRunIntoSteadyStateAllocFree pins the kernel's allocation
// contract: once a Simulator has seen a workload's size, RunInto on a
// reused Result allocates nothing, on an exact and on a fractional
// deep queue alike.
func TestRunIntoSteadyStateAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checks format their arguments")
	}
	for _, fractional := range []bool{false, true} {
		in, _, _ := deepWorkload(rand.New(rand.NewSource(5)), fractional)
		sim := New()
		var res Result
		sim.RunInto(&res, in)
		if allocs := testing.AllocsPerRun(10, func() { sim.RunInto(&res, in) }); allocs != 0 {
			t.Fatalf("fractional %v: steady-state RunInto made %v allocations, want 0", fractional, allocs)
		}
	}
}

// TestPackageRunMatchesSimulator pins the compat wrapper to the method.
func TestPackageRunMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in, jobsNew, jobsRef := randomWorkload(rng)
	in.Jobs = jobsRef
	want := New().Run(in)
	in.Jobs = jobsNew
	got := Run(in)
	if got.ShortfallMin != want.ShortfallMin || got.ShortfallMax != want.ShortfallMax ||
		got.Saturated != want.Saturated || got.IdleNow != want.IdleNow ||
		got.NumEndangered != want.NumEndangered {
		t.Fatalf("Run wrapper diverged: %+v vs %+v", got, want)
	}
}

// benchWorkload builds a deterministic workload of the given size.
// Deadlines are spread so some jobs are endangered, and remaining times
// differ so the simulation takes many completion steps (the worst case
// for the per-step scans).
func benchWorkload(njobs, nproj int) Input {
	rng := rand.New(rand.NewSource(7))
	shares := make([]float64, nproj)
	for p := range shares {
		shares[p] = float64(1 + rng.Intn(10))
	}
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: 4, FLOPSPerInst: 1e9}
	hw.Proc[host.NvidiaGPU] = host.Resource{Count: 1, FLOPSPerInst: 1e11}
	jobs := make([]*Job, njobs)
	for i := range jobs {
		j := &Job{
			Project:   rng.Intn(nproj),
			Type:      host.CPU,
			Instances: 1,
			Remaining: 100 + rng.Float64()*20000,
			Deadline:  rng.Float64() * 4 * 86400,
		}
		if i%8 == 0 {
			j.Type = host.NvidiaGPU
		}
		jobs[i] = j
	}
	return Input{
		Hardware:       hw,
		Shares:         shares,
		HorizonMin:     3600,
		HorizonMax:     86400,
		DeadlineMargin: 120,
		Jobs:           jobs,
	}
}

var benchSizes = []struct {
	name        string
	jobs, nproj int
}{
	{"small", 10, 2},
	{"medium", 100, 10},
	{"jobheavy", 1500, 20},
}

// BenchmarkRRSim measures the Simulator across workload sizes; Run only
// writes job output fields, so the input is safely reused across
// iterations.
func BenchmarkRRSim(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			in := benchWorkload(sz.jobs, sz.nproj)
			sim := New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(in)
			}
		})
	}
}

// BenchmarkRRSimReference measures the frozen pre-Simulator code on the
// same workloads, keeping the before/after comparison reproducible.
func BenchmarkRRSimReference(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			in := benchWorkload(sz.jobs, sz.nproj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				referenceRun(in)
			}
		})
	}
}
