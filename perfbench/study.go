package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bce/internal/population"
	"bce/internal/scenario"
)

// studyMix is the researcher's Monte-Carlo flow: a closed loop of
// population.Run studies of sampled scenarios × the five default policy
// combos on a runner pool of nproc workers. It is the only workload
// whose pool waits at batch barriers behind its slowest cell and whose
// results go through the population fold.
type studyMix struct {
	seed  int64
	next  int       // index of the next study
	cells []cellRec // checked cells of every study measured
	acc   layerAcc
}

// studyLatencySample is how many studies' latencies a phase reports (a
// 50 s run completes about 330).
const studyLatencySample = 128

// studyWarmup is how many studies setup runs.
const studyWarmup = 4

// studySample selects the studies whose first scenario's cells are
// re-checked.
func studySample(k int) bool { return k%4 == 0 }

func (w *studyMix) opName() (string, string, string) {
	return fmt.Sprintf("one study of %d scenarios x 5 combos (closed loop, 1 researcher)", studyScenarios),
		"study_ms_p50", "study_ms_tail"
}

func (w *studyMix) setup(ctx context.Context) error {
	w.next, w.cells, w.acc = 0, nil, layerAcc{}
	// Warm-up: studyWarmup studies of fixed populations no timed study
	// draws from, so set-up does the same work whatever the seed, and
	// enough of it to time steadily.
	for k := 1; k <= studyWarmup; k++ {
		if _, _, err := runStudy(ctx, nil, studySeed(defaultSeed, -k), func(int) bool { return false }, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *studyMix) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var acc *batchStats
	var wk *work
	if tr != nil {
		acc, wk = &w.acc.batch, &w.acc.work
	}
	first := w.next
	start := time.Now()
	for time.Since(start) < d {
		k := w.next
		w.next++
		keep := func(i int) bool { return i == 0 && studySample(k) }
		t0 := time.Now()
		st, cells, err := runStudy(ctx, tr, studySeed(w.seed, k), keep, acc, wk)
		lat := ms(time.Since(t0))
		ph.attempted += studyScenarios * 5
		if err != nil {
			ph.failed += studyScenarios * 5
			ph.notes = append(ph.notes, fmt.Sprintf("study %d failed: %v", k, err))
			continue
		}
		failed := 0
		for _, a := range st.Aggs {
			failed += a.Failed
		}
		ph.failed += failed
		if len(ph.opMs) < studyLatencySample {
			ph.opMs = append(ph.opMs, lat)
		}
		ph.simDays += float64(studyScenarios*len(st.Aggs)-failed) * studyDays
		w.cells = append(w.cells, cells...)
	}
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.lat = summarize(ph.opMs)
	ph.notes = append(ph.notes, fmt.Sprintf("%d studies, %d cells of %g emulated days", w.next-first, int(ph.simDays/studyDays+0.5), studyDays))
	return ph, nil
}

// verify re-runs every checked cell directly and compares it with both
// the run the study made and the values the study folded.
func (w *studyMix) verify(ctx context.Context, tr *tracer) checkResult {
	var c checkResult
	scns := make([]*scenario.Scenario, len(w.cells))
	want := make([]record, len(w.cells))
	for i, cell := range w.cells {
		scns[i], want[i] = cell.scn, cell.rec
		if cell.vals != cell.rec.Metrics {
			c.mismatch("study folded %v for %s/%s/%s, its run reported %v",
				cell.vals, cell.rec.Name, cell.rec.Sched, cell.rec.Fetch, cell.rec.Metrics)
		}
	}
	c.add(compareRuns(ctx, tr, &w.acc.batch, scns, want))
	return c
}

// sampleScenarios is the replay input: n checked cells, spread over
// the run.
func (w *studyMix) sampleScenarios(n int) []*scenario.Scenario {
	var out []*scenario.Scenario
	step := max(len(w.cells)/n, 1)
	for i := 0; i < len(w.cells) && len(out) < n; i += step {
		out = append(out, w.cells[i].scn)
	}
	return out
}

func (w *studyMix) layers(ctx context.Context, tr *tracer) (*layerAcc, checkResult, error) {
	var err error
	if err = w.acc.replayClient(ctx, tr, w.sampleScenarios(16)); err != nil {
		return nil, checkResult{}, err
	}
	if w.acc.kernels, err = replayKernels(tr, w.sampleScenarios(16)); err != nil {
		return nil, checkResult{}, err
	}
	chk, err := w.acc.replayServed(ctx, tr, w.seed, studyCells(w.seed, servePool))
	return &w.acc, chk, err
}

// studyCells returns the first n cells of the run's studies, in study,
// scenario, combo order, each a study scenario with its combo's
// policies applied.
func studyCells(seed int64, n int) []*scenario.Scenario {
	combos := population.DefaultCombos()
	out := make([]*scenario.Scenario, n)
	for j := range out {
		k, i, c := j/(studyScenarios*len(combos)), j/len(combos)%studyScenarios, j%len(combos)
		s := studyScenario(studySeed(seed, k), i)
		s.Policies.JobSched, s.Policies.JobFetch = combos[c].Sched, combos[c].Fetch
		out[j] = s
	}
	return out
}

func (w *studyMix) teardown() {}
