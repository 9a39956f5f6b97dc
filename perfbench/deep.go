package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bce/internal/scenario"
)

// deepQueue is a closed loop of sequential emulations from one caller:
// the single-scenario user waiting on bce or the web form, on a
// job-heavy host where rr_sim and the job scheduler run over a deep
// queue at every scheduling point.
type deepQueue struct {
	seed int64
	scns []*scenario.Scenario // generated inputs, extended on demand
	next int                  // stream position of the next emulation
	recs map[int]record       // records of the sampled emulations
	done []int                // every emulation run since setup
	acc  layerAcc
}

// deepSample selects the emulations whose outputs are re-checked.
func deepSample(k int) bool { return k%32 == 0 }

// deepLatencySample is how many emulations' latencies a phase reports
// (a 50 s run completes about 145).
const deepLatencySample = 96

// deepPregen is how many inputs setup generates.
const deepPregen = 512

func (w *deepQueue) opName() (string, string, string) {
	return "one emulation (closed loop, 1 caller)", "run_ms_p50", "run_ms_tail"
}

func (w *deepQueue) setup(ctx context.Context) error {
	w.scns = w.scns[:0]
	for k := 0; k < deepPregen; k++ {
		w.scns = append(w.scns, deepQueueScenario(w.seed, k))
	}
	w.next, w.recs, w.done, w.acc = 0, map[int]record{}, nil, layerAcc{}
	// Warm-up: one whole emulation of a fixed input, so set-up does the
	// same work whatever the seed, and enough of it to time steadily.
	_, err := w.acc.emulate(ctx, nil, "", deepQueueScenario(defaultSeed, 0))
	return err
}

func (w *deepQueue) scenario(k int) *scenario.Scenario {
	for len(w.scns) <= k {
		w.scns = append(w.scns, deepQueueScenario(w.seed, len(w.scns)))
	}
	return w.scns[k]
}

func (w *deepQueue) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < d {
		k := w.next
		w.next++
		s := w.scenario(k)
		ph.attempted++
		t0 := time.Now()
		res, err := w.acc.emulate(ctx, tr, "deep_queue.emulation", s)
		if err != nil {
			ph.failed++
			ph.notes = append(ph.notes, fmt.Sprintf("emulation %d failed: %v", k, err))
			continue
		}
		if len(ph.opMs) < deepLatencySample {
			ph.opMs = append(ph.opMs, ms(time.Since(t0)))
		}
		ph.simDays += s.DurationDays
		w.done = append(w.done, k)
		if deepSample(k) {
			w.recs[k] = newRecord(s, res)
		}
		if tr != nil {
			w.acc.work.add(s.DurationDays, res)
		}
	}
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.lat = summarize(ph.opMs)
	ph.notes = append(ph.notes, fmt.Sprintf("%d emulations of 1 emulated day", ph.attempted))
	return ph, nil
}

func (w *deepQueue) verify(ctx context.Context, tr *tracer) checkResult {
	var scns []*scenario.Scenario
	var want []record
	for _, k := range w.done {
		if r, ok := w.recs[k]; ok {
			scns = append(scns, w.scenario(k))
			want = append(want, r)
		}
	}
	return compareRuns(ctx, tr, &w.acc.batch, scns, want)
}

// sampleScenarios is the replay input: the first n checked emulations.
func (w *deepQueue) sampleScenarios(n int) []*scenario.Scenario {
	var out []*scenario.Scenario
	for _, k := range w.done {
		if deepSample(k) && len(out) < n {
			out = append(out, w.scenario(k))
		}
	}
	return out
}

func (w *deepQueue) layers(ctx context.Context, tr *tracer) (*layerAcc, checkResult, error) {
	var err error
	if w.acc.kernels, err = replayKernels(tr, w.sampleScenarios(3)); err != nil {
		return nil, checkResult{}, err
	}
	pool := make([]*scenario.Scenario, servePool)
	for k := range pool {
		pool[k] = w.scenario(k)
	}
	chk, err := w.acc.replayServed(ctx, tr, w.seed, pool)
	if err != nil {
		return nil, chk, err
	}
	return &w.acc, chk, w.acc.replayPopulation(ctx, tr, w.sampleScenarios(2))
}

func (w *deepQueue) teardown() {}
