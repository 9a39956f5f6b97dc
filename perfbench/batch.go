package main

import (
	"context"
	"runtime"
	"time"

	"bce/internal/client"
	"bce/internal/population"
	"bce/internal/runner"
	"bce/internal/scenario"
)

// nproc bounds every worker pool and connection pool the benchmark
// creates.
func nproc() int { return runtime.NumCPU() }

// batchStats accumulates runner.Batch calls: process CPU time over the
// worker pool's wall time, for runner.cpu_util.
type batchStats struct {
	cpu        time.Duration
	workerWall time.Duration // Σ wall × workers
}

func (b *batchStats) cpuUtil() float64 { return float64(b.cpu) / float64(b.workerWall) }

// timedBatch runs specs on runner.Batch and adds the call to acc. When
// tracing, it records a runner.Batch span under parent and a
// scenario.Config span around each spec's Make, which the runner calls
// on its worker goroutines.
func timedBatch(ctx context.Context, tr *tracer, acc *batchStats, parent, op int, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error) {
	workers := min(runner.Resolve(opts...).Workers, len(specs))
	id := tr.open("runner.Batch", parent, op)
	if tr != nil {
		wrapped := make([]runner.Spec, len(specs))
		for j, sp := range specs {
			sp := sp
			wrapped[j] = runner.Spec{Label: sp.Label, Make: func() (client.Config, error) {
				cid := tr.open("scenario.Config", id, op)
				defer tr.close(cid)
				return sp.Make()
			}}
		}
		specs = wrapped
	}
	cpu0, t0 := cpuTime(), time.Now()
	results, err := runner.Batch(ctx, specs, opts...)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	tr.close(id)
	if acc != nil {
		acc.cpu += cpu
		acc.workerWall += wall * time.Duration(max(workers, 1))
	}
	return results, err
}

// cellRec is one checked study cell.
type cellRec struct {
	scn  *scenario.Scenario // with the cell's policies applied
	rec  record
	vals [population.NumMetrics]float64 // as folded by the study
}

// runStudy runs one study_mix study of the population with the given
// seed: studyScenarios scenarios × the default combos, studyBatch
// scenarios per runner.Batch call on nproc workers. It returns the
// records of every cell of the scenarios keep selects, and adds the
// batches to acc and the cells' work to wk when they are not nil.
func runStudy(ctx context.Context, tr *tracer, popSeed int64, keep func(i int) bool, acc *batchStats, wk *work) (*population.Study, []cellRec, error) {
	combos := population.DefaultCombos()
	nc := len(combos)
	var cells []cellRec
	byCell := make(map[int]int) // i*nc+c → index in cells
	op := tr.newOp()
	root := tr.open("population.Run", 0, op)
	defer tr.close(root)
	batches := 0
	p := population.Params{
		Combos:    combos,
		Scenarios: studyScenarios,
		Seed:      popSeed,
		BatchSize: studyBatch,
		Source:    func(i int) (*scenario.Scenario, error) { return studyScenario(popSeed, i), nil },
		OnCell: func(i, c int, vals [population.NumMetrics]float64, failed bool) {
			if k, ok := byCell[i*nc+c]; ok {
				cells[k].vals = vals
			}
		},
		RunBatch: func(ctx context.Context, specs []runner.Spec, opts ...runner.Option) ([]runner.RunResult, error) {
			// Specs arrive scenario-major, then combo, for scenarios
			// [lo, lo+studyBatch).
			lo := batches * studyBatch
			batches++
			results, err := timedBatch(ctx, tr, acc, root, op, specs, opts...)
			if err != nil {
				return results, err
			}
			for j, r := range results {
				i, c := lo+j/nc, j%nc
				if r.Err != nil {
					continue
				}
				if wk != nil {
					wk.add(studyDays, r.Result)
				}
				if !keep(i) {
					continue
				}
				scn := *studyScenario(popSeed, i)
				scn.Policies.JobSched, scn.Policies.JobFetch = combos[c].Sched, combos[c].Fetch
				byCell[i*nc+c] = len(cells)
				cells = append(cells, cellRec{scn: &scn, rec: newRecord(&scn, r.Result)})
			}
			return results, nil
		},
	}
	st, err := population.Run(ctx, p, runner.WithWorkers(nproc()))
	return st, cells, err
}
