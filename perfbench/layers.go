package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"time"

	"bce/internal/client"
	"bce/internal/population"
	"bce/internal/runner"
	"bce/internal/scenario"
	"bce/internal/serve"
)

// work counts what emulations did; a change in these is a behaviour
// change, not a speed change.
type work struct {
	days       float64
	events     uint64
	rpcs, jobs int
	dispatched int
}

func (w *work) add(days float64, r *client.Result) {
	w.days += days
	w.events += r.Events
	w.rpcs += r.Metrics.RPCs
	w.jobs += r.Metrics.CompletedJobs
	for _, n := range r.Dispatched {
		w.dispatched += n
	}
}

// runSample is one traced Client.RunContext call.
type runSample struct {
	ns     float64
	events uint64
	allocs uint64
}

// layerAcc gathers the traced run's per-layer measurements that spans
// alone do not carry.
type layerAcc struct {
	runs    []runSample
	work    work
	batch   batchStats
	kernels kernelStats
	serve   serve.Stats // service counter deltas over the served replay
	lagMs   []float64   // served replay: how late each request was sent
	gcFrac  float64
}

// metrics turns the spans and accumulators into the per-layer metrics.
func (a *layerAcc) metrics(tr *tracer) map[string]metric {
	lm := map[string]metric{}
	put := func(name string, v float64, unit string) { lm[name] = metric{v, unit} }
	put("scenario.config_us", median(tr.durations("scenario.Config", time.Microsecond)), "us")
	put("client.new_us", median(tr.durations("client.New", time.Microsecond)), "us")
	put("client.run_ms", median(tr.durations("client.RunContext", time.Millisecond)), "ms")
	var ns float64
	var events uint64
	var allocs []float64
	for _, r := range a.runs {
		ns += r.ns
		events += r.events
		allocs = append(allocs, float64(r.allocs))
	}
	put("client.ns_per_event", ns/float64(max(events, 1)), "ns")
	put("client.allocs_per_run", median(allocs), "count")
	perDay := func(n float64) float64 { return n / a.work.days }
	put("client.events_per_sim_day", perDay(float64(a.work.events)), "count")
	put("client.rpcs_per_sim_day", perDay(float64(a.work.rpcs)), "count")
	put("client.jobs_per_sim_day", perDay(float64(a.work.jobs)), "count")
	put("project.dispatched_per_sim_day", perDay(float64(a.work.dispatched)), "count")
	put("runtime.gc_cpu_frac", a.gcFrac, "frac")
	a.kernels.into(put)
	put("runner.batch_ms", median(tr.durations("runner.Batch", time.Millisecond)), "ms")
	put("runner.cpu_util", a.batch.cpuUtil(), "frac")
	var over []float64
	spans := tr.snapshot()
	for i, self := range spanSelf(spans) {
		if spans[i].Name == "population.Run" {
			over = append(over, ms(self))
		}
	}
	put("population.overhead_ms", median(over), "ms")
	put("serve.fingerprint_us", median(tr.durations("serve.Fingerprint", time.Microsecond)), "us")
	st := a.serve
	put("serve.cache_hit_frac", float64(st.CacheHits)/float64(max(st.CacheHits+st.Runs, 1)), "frac")
	put("serve.runs", float64(st.Runs), "count")
	put("web.submit_ms_p50", median(tr.durations("web.submit", time.Millisecond)), "ms")
	put("web.wait_ms_tail", summarize(tr.durations("web.wait", time.Millisecond)).Tail, "ms")
	put("web.result_ms_p50", median(tr.durations("web.result", time.Millisecond)), "ms")
	put("loadgen.lag_ms_tail", summarize(a.lagMs).Tail, "ms")
	return lm
}

// replayClient runs Config, client.New and RunContext on each scenario
// on this goroutine, under spans, for workloads whose timed phase
// reaches the client only through the runner or the service.
func (a *layerAcc) replayClient(ctx context.Context, tr *tracer, scns []*scenario.Scenario) error {
	for _, s := range scns {
		if _, err := a.emulate(ctx, tr, "replay.emulation", s); err != nil {
			return err
		}
	}
	return nil
}

// emulate is one direct emulation under spans: Config, client.New and
// RunContext, with the allocation count of RunContext when tracing.
func (a *layerAcc) emulate(ctx context.Context, tr *tracer, opName string, s *scenario.Scenario) (*client.Result, error) {
	op := tr.newOp()
	root := tr.open(opName, 0, op)
	defer tr.close(root)
	id := tr.open("scenario.Config", root, op)
	cfg, err := s.Config()
	tr.close(id)
	if err != nil {
		return nil, err
	}
	id = tr.open("client.New", root, op)
	c, err := client.New(cfg)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	id = tr.open("client.RunContext", root, op)
	res, err := c.RunContext(ctx)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		ns := float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&m1)
		a.runs = append(a.runs, runSample{ns: ns, events: res.Events, allocs: m1.Mallocs - m0.Mallocs})
	}
	return res, nil
}

// replayPopulation runs a small population.Run over scns, under the
// first scenario's policies, so population.overhead_ms is measured on
// workloads whose timed phase does not go through the study engine.
func (a *layerAcc) replayPopulation(ctx context.Context, tr *tracer, scns []*scenario.Scenario) error {
	op := tr.newOp()
	root := tr.open("population.Run", 0, op)
	defer tr.close(root)
	_, err := population.Run(ctx, population.Params{
		Combos:    []population.Combo{{Sched: scns[0].Policies.JobSched, Fetch: scns[0].Policies.JobFetch}},
		Scenarios: len(scns),
		Source:    func(i int) (*scenario.Scenario, error) { return scns[i], nil },
		RunBatch: func(ctx context.Context, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error) {
			return timedBatch(ctx, tr, &a.batch, root, op, specs, opts...)
		},
	}, runner.WithWorkers(nproc()))
	return err
}

// gcMeter reads the share of CPU time the garbage collector took since
// startGC.
type gcMeter struct{ gc0, total0 float64 }

var gcSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func readGC() (gc, total float64) {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startGC() gcMeter {
	gc, total := readGC()
	return gcMeter{gc, total}
}

func (m gcMeter) frac() float64 {
	gc, total := readGC()
	if total <= m.total0 {
		return 0
	}
	return (gc - m.gc0) / (total - m.total0)
}
