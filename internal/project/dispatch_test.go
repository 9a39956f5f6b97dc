package project

import (
	"fmt"
	"math/rand"
	"testing"

	"bce/internal/host"
	"bce/internal/job"
	"bce/internal/stats"
)

// refServer is the frozen reference job supply: one freshly allocated,
// fmt-named task per dispatch, exactly as Server worked before tasks
// were carved from a slab and named once per reply. It draws from a
// stream seeded like the Server under test, forking in the same order.
type refServer struct {
	spec      Spec
	index     int
	rng       *stats.RNG
	jobSeq    int
	reachable *flipFlop
	hasWork   *flipFlop
	refused   int
}

func newRefServer(spec Spec, index int, rng *stats.RNG) *refServer {
	if spec.MaxJobsPerRPC <= 0 {
		spec.MaxJobsPerRPC = 64
	}
	r := &refServer{spec: spec, index: index, rng: rng}
	r.reachable = newFlipFlop(spec.Downtime, rng.Fork("downtime"))
	r.hasWork = newFlipFlop(spec.WorkGaps, rng.Fork("workgaps"))
	return r
}

func (r *refServer) pickApp(t host.ProcType) *AppSpec {
	var total float64
	for i := range r.spec.Apps {
		if r.spec.Apps[i].Usage.Type() == t {
			total += r.spec.Apps[i].weight()
		}
	}
	if total == 0 {
		return nil
	}
	x := r.rng.Float64() * total
	for i := range r.spec.Apps {
		a := &r.spec.Apps[i]
		if a.Usage.Type() != t {
			continue
		}
		x -= a.weight()
		if x <= 0 {
			return a
		}
	}
	for i := len(r.spec.Apps) - 1; i >= 0; i-- {
		if r.spec.Apps[i].Usage.Type() == t {
			return &r.spec.Apps[i]
		}
	}
	return nil
}

func (r *refServer) generate(a *AppSpec, now float64) *job.Task {
	r.jobSeq++
	dur := r.rng.TruncNormal(a.MeanDuration, a.StdevDuration, a.MeanDuration/10, a.MeanDuration*10)
	est := a.MeanDuration
	if a.EstErrBias > 0 {
		est *= a.EstErrBias
	}
	if a.EstErrSigma > 0 {
		est *= r.rng.Lognormal(0, a.EstErrSigma)
	}
	return &job.Task{
		Name:             fmt.Sprintf("%s_%s_%d", r.spec.Name, a.Name, r.jobSeq),
		Project:          r.index,
		Usage:            a.Usage,
		Duration:         dur,
		EstDuration:      est,
		ReceivedAt:       now,
		Deadline:         now + a.LatencyBound,
		CheckpointPeriod: a.CheckpointPeriod,
		InputBytes:       a.InputBytes,
		OutputBytes:      a.OutputBytes,
	}
}

func (r *refServer) dispatch(now float64, reqs []Request, hi HostInfo) []*job.Task {
	if !r.reachable.stateAt(now) {
		return nil
	}
	s := Server{Spec: r.spec} // for feasible and SuppliesType only
	var out []*job.Task
	for _, req := range reqs {
		if req.Seconds <= 0 && req.Instances <= 0 {
			continue
		}
		if !s.SuppliesType(req.Type) || !r.hasWork.stateAt(now) {
			continue
		}
		secs, inst := req.Seconds, req.Instances
		for (secs > 1e-9 || inst > 1e-9) && len(out) < r.spec.MaxJobsPerRPC {
			a := r.pickApp(req.Type)
			if a == nil {
				break
			}
			t := r.generate(a, now)
			if !s.feasible(t, a.LatencyBound, hi) {
				r.refused++
				break
			}
			out = append(out, t)
			secs -= t.EstDuration * t.Usage.Instances()
			inst -= t.Usage.Instances()
		}
	}
	return out
}

// TestDispatchMatchesReference differentially checks the slab-carved,
// once-per-reply-named job supply against the frozen reference: every
// dispatched task, its name included, must equal the reference's, over
// refusals, several apps of both processor types, several requests per
// reply, downtime and work gaps, and enough replies to cross many slab
// chunk boundaries. Tasks handed out earlier must stay untouched by
// later replies, and tasks within a reply must be distinct.
func TestDispatchMatchesReference(t *testing.T) {
	var refusals, longest int
	for seed := int64(0); seed < 40; seed++ {
		drv := rand.New(rand.NewSource(seed))
		fast, short := cpuApp(300), cpuApp(900)
		fast.Name, short.Name = "fast", "short"
		short.Weight, short.StdevDuration = 3, 200
		short.EstErrSigma = 0.6 // some estimates overrun the latency bound
		gpu := gpuApp(600)
		gpu.EstErrBias = 1.5
		spec := Spec{
			Name: fmt.Sprint("proj", seed), Share: 1,
			Apps:          []AppSpec{fast, short, gpu},
			Check:         DeadlineCheck(drv.Intn(3)),
			MaxJobsPerRPC: 1 + drv.Intn(80),
		}
		if seed%3 == 0 {
			spec.Downtime = host.AvailSpec{MeanOn: 3000, MeanOff: 1000}
			spec.WorkGaps = host.AvailSpec{MeanOn: 5000, MeanOff: 500}
		}
		s, err := NewServer(spec, int(seed%4), stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefServer(spec, int(seed%4), stats.NewRNG(seed))

		var handed, frozen []*job.Task
		for reply := 0; reply < 150; reply++ {
			now := float64(reply) * 200
			var reqs []Request
			for k := drv.Intn(4); k > 0; k-- {
				typ := host.CPU
				if drv.Intn(3) == 0 {
					typ = host.NvidiaGPU
				}
				reqs = append(reqs, Request{Type: typ, Instances: float64(drv.Intn(3)), Seconds: float64(drv.Intn(4)) * 1500})
			}
			hi := HostInfo{OnFrac: 0.4 + 0.6*drv.Float64()}
			got, want := s.Dispatch(now, reqs, hi), ref.dispatch(now, reqs, hi)
			if len(got) != len(want) {
				t.Fatalf("seed %d reply %d: %d tasks, want %d", seed, reply, len(got), len(want))
			}
			for i := range got {
				if *got[i] != *want[i] {
					t.Fatalf("seed %d reply %d task %d:\n got %+v\nwant %+v", seed, reply, i, *got[i], *want[i])
				}
				for _, prev := range got[:i] {
					if prev == got[i] {
						t.Fatalf("seed %d reply %d: task %d handed out twice in one reply", seed, reply, i)
					}
				}
			}
			handed = append(handed, got...)
			frozen = append(frozen, want...)
		}
		for i := range handed {
			if *handed[i] != *frozen[i] {
				t.Fatalf("seed %d: task %d changed after dispatch: %+v, want %+v", seed, i, *handed[i], *frozen[i])
			}
		}
		if s.Refused != ref.refused || s.Dispatched != len(handed) {
			t.Fatalf("seed %d: dispatched/refused %d/%d, want %d/%d", seed, s.Dispatched, s.Refused, len(handed), ref.refused)
		}
		refusals += s.Refused
		longest = max(longest, len(handed))
	}
	if refusals == 0 || longest <= 2*slabMax {
		t.Fatalf("cases too easy: %d refusals, at most %d tasks from one server", refusals, longest)
	}
}

// TestDispatchAllocsPerReply bounds what one reply allocates once the
// slab has reached its cap: the result slice, the names string and a
// share of a slab chunk, whatever the reply's size.
func TestDispatchAllocsPerReply(t *testing.T) {
	s := newTestServer(t, Spec{Name: "p", Share: 1, Apps: []AppSpec{cpuApp(100)}})
	reqs := []Request{{Type: host.CPU, Instances: 2, Seconds: 1500}} // 15 jobs
	for i := 0; i < 100; i++ {
		s.Dispatch(0, reqs, HostInfo{})
	}
	if n := testing.AllocsPerRun(200, func() { s.Dispatch(0, reqs, HostInfo{}) }); n > 2 {
		t.Fatalf("a 15-job reply allocates %v times, want at most 2 (result slice, names)", n)
	}
}

// BenchmarkDispatch measures replies of mixed sizes from one reused
// server, as a client's scheduler RPCs see it.
func BenchmarkDispatch(b *testing.B) {
	a, c := cpuApp(600), cpuApp(1200)
	a.Name, c.Name = "short", "long"
	a.StdevDuration = 100
	s, err := NewServer(Spec{Name: "bench", Share: 1, Apps: []AppSpec{a, c, gpuApp(900)}}, 0, stats.NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	sizes := [][]Request{
		{{Type: host.CPU, Instances: 1}},
		{{Type: host.CPU, Instances: 4, Seconds: 6000}},
		{{Type: host.CPU, Seconds: 30000}, {Type: host.NvidiaGPU, Instances: 1, Seconds: 3000}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Dispatch(float64(i), sizes[i%len(sizes)], HostInfo{OnFrac: 1})
	}
}
