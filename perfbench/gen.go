package main

import (
	"fmt"
	"math"
	"time"

	"bce/internal/runner"
	"bce/internal/scenario"
	"bce/internal/stats"
)

// Every input below is a pure function of the benchmark seed and an
// index: the same seed always yields the same scenarios and schedule.

// deepPolicies is the job-scheduling cycle of deep_queue emulations.
var deepPolicies = []string{"JS-LOCAL", "JS-GLOBAL", "JS-WRR"}

// deepQueueScenario returns the k-th deep_queue emulation: one emulated
// day of a job-heavy host (4–8 CPUs, 2–4 projects, a 24–48 h buffer of
// 12.5–15 min jobs) whose buffer holds a queue of 750–850 tasks. The
// policy, core count and project count are stratified by k, so every
// run covers the same mix of shapes, and the buffer is sized so that
// every shape queues about as much work: emulations then cost about the
// same, and the seed — which draws shares, deadlines, job lengths and
// the emulation seed — moves the cost little.
func deepQueueScenario(seed int64, k int) *scenario.Scenario {
	rng := stats.NewRNG(runner.DeriveSeed(seed, k))
	ncpu := 4 + (k/len(deepPolicies))%5
	nproj := 2 + (k/(5*len(deepPolicies)))%3
	jobSecs := rng.Uniform(800, 850)
	bufH := clamp(rng.Uniform(750, 850)*jobSecs/3600/float64(ncpu), 24, 48)
	s := &scenario.Scenario{
		Name:         fmt.Sprintf("deep-%05d", k),
		DurationDays: 1,
		Seed:         int64(rng.Intn(1 << 30)),
		Host: scenario.HostJSON{
			NCPU: ncpu, CPUGFlops: rng.Uniform(2, 6), MemGB: 16,
			MinQueueHours: 0.75 * bufH, MaxQueueHours: bufH,
		},
		Policies: scenario.Policies{JobSched: deepPolicies[k%len(deepPolicies)], JobFetch: "JF-HYSTERESIS"},
	}
	for p := 0; p < nproj; p++ {
		mean := jobSecs * rng.Uniform(0.95, 1.05)
		s.Projects = append(s.Projects, scenario.ProjectJSON{
			Name:  fmt.Sprintf("p%d", p),
			Share: []float64{50, 100, 100, 200}[rng.Intn(4)],
			Apps: []scenario.AppJSON{{
				Name: "app", NCPUs: 1, MemMB: 100,
				MeanSecs: mean, StdevSecs: 0.2 * mean,
				LatencySecs: rng.Uniform(2, 5) * 86400,
			}},
		})
	}
	return s
}

// Study population: scenario.Sample draws of studyDays each. Draws whose
// estimated queue exceeds maxStudyQueue tasks are rejected: the deep
// tail is deep_queue's subject, and on a study of a few hundred
// scenarios its handful of multi-second members would make the
// workload's cost depend more on the seed than on the code.
const (
	studyDays      = 0.25
	maxStudyQueue  = 400
	studyScenarios = 16 // scenarios per study
	studyBatch     = 4  // scenarios per runner.Batch call
)

// studySeed is the population seed of the k-th study of a run.
func studySeed(seed int64, k int) int64 { return runner.DeriveSeed(seed^0x57d7, k) }

// studyScenario is scenario i of the population with the given seed:
// the first acceptable draw of a per-index stream.
func studyScenario(popSeed int64, i int) *scenario.Scenario {
	base := runner.DeriveSeed(popSeed, i)
	for d := 0; ; d++ {
		s := scenario.Sample(stats.NewRNG(runner.DeriveSeed(base, d)), scenario.PopulationParams{DurationDays: studyDays})
		if estQueue(s) <= maxStudyQueue {
			s.Name = fmt.Sprintf("pop-%07d", i)
			return s
		}
	}
}

// estQueue estimates how many tasks a scenario's max-queue preference
// holds: each project's share of the host's instances, times the buffer
// length, over its job length.
func estQueue(s *scenario.Scenario) float64 {
	var total float64
	for _, p := range s.Projects {
		total += p.Share
	}
	var n float64
	for _, p := range s.Projects {
		for _, a := range p.Apps {
			inst := float64(s.Host.NCPU)
			if a.NGPUs > 0 {
				inst = float64(s.Host.NGPU)
			}
			n += p.Share / total * inst * s.Host.MaxQueueHours * 3600 / a.MeanSecs / float64(len(p.Apps))
		}
	}
	return n
}

// Served replay: the traced run sends a workload's own scenarios through
// an in-process bceweb. Requests are uniform draws from a pool of the
// workload's inputs larger than the service's 128-entry result cache,
// so the cache both hits and evicts, and arrive as a Poisson open loop
// at a fixed rate.
const (
	servePool     = 192      // distinct scenarios a replay draws from
	serveRequests = 384      // requests per replay
	serveRPS      = 50       // offered rate, requests/s
	serveDays     = 1.0 / 24 // emulated days per served scenario, at most
)

// request is one entry of a served replay.
type request struct {
	Due  time.Duration // open-loop send time after the replay starts
	Pool int           // index in the replay's pool
}

// requestStream yields the served replay's requests of one seed in
// order: each a uniform draw from the pool, arriving Poisson at
// serveRPS.
type requestStream struct {
	rng *stats.RNG
	t   float64 // seconds
}

func newRequestStream(seed int64) *requestStream {
	return &requestStream{rng: stats.NewRNG(runner.DeriveSeed(seed^0x5c4e, 0))}
}

func (r *requestStream) next() request {
	req := request{Due: time.Duration(r.t * float64(time.Second)), Pool: r.rng.Intn(servePool)}
	r.t += r.rng.Exp(1.0 / serveRPS)
	return req
}

func clamp(x, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, x)) }
