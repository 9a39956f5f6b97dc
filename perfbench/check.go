package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"bce/internal/client"
	"bce/internal/population"
	"bce/internal/scenario"
)

// record is what the benchmark checks of one emulation: the five
// figures of merit, the event count and the per-project dispatch
// counters.
type record struct {
	Name       string     `json:"name"`
	Sched      string     `json:"sched"`
	Fetch      string     `json:"fetch"`
	Metrics    [5]float64 `json:"metrics"`
	Events     uint64     `json:"events"`
	Dispatched []int      `json:"dispatched"`
	Refused    []int      `json:"refused"`
}

func newRecord(s *scenario.Scenario, r *client.Result) record {
	return record{
		Name: s.Name, Sched: s.Policies.JobSched, Fetch: s.Policies.JobFetch,
		Metrics: r.Metrics.Values(), Events: r.Events,
		Dispatched: append([]int(nil), r.Dispatched...), Refused: append([]int(nil), r.Refused...),
	}
}

// diff describes how got differs from r, or returns "" when they are
// identical (floats compared bit for bit: the emulator is
// deterministic).
func (r record) diff(got record) string {
	switch {
	case r.Name != got.Name || r.Sched != got.Sched || r.Fetch != got.Fetch:
		return fmt.Sprintf("identity %s/%s/%s vs %s/%s/%s", r.Name, r.Sched, r.Fetch, got.Name, got.Sched, got.Fetch)
	case r.Metrics != got.Metrics:
		return fmt.Sprintf("%s metrics %v vs %v", r.Name, r.Metrics, got.Metrics)
	case r.Events != got.Events:
		return fmt.Sprintf("%s events %d vs %d", r.Name, r.Events, got.Events)
	case !slices.Equal(r.Dispatched, got.Dispatched) || !slices.Equal(r.Refused, got.Refused):
		return fmt.Sprintf("%s dispatched/refused %v/%v vs %v/%v", r.Name, r.Dispatched, r.Refused, got.Dispatched, got.Refused)
	}
	return ""
}

// rerun emulates each scenario once through runner.Batch and returns
// the records.
func rerun(ctx context.Context, tr *tracer, acc *batchStats, scns []*scenario.Scenario) ([]record, []error) {
	results := runDirect(ctx, tr, acc, scns)
	recs := make([]record, len(scns))
	errs := make([]error, len(scns))
	for i, r := range results {
		if r.Err != nil {
			errs[i] = r.Err
			continue
		}
		recs[i] = newRecord(scns[i], r.Result)
	}
	return recs, errs
}

// compareRuns re-runs scns and checks each against want.
func compareRuns(ctx context.Context, tr *tracer, acc *batchStats, scns []*scenario.Scenario, want []record) checkResult {
	var c checkResult
	got, errs := rerun(ctx, tr, acc, scns)
	for i := range scns {
		switch {
		case errs[i] != nil:
			c.fail("re-run of %s: %v", scns[i].Name, errs[i])
		case want[i].diff(got[i]) != "":
			c.mismatch("re-run of %s does not reproduce its record: %s", scns[i].Name, want[i].diff(got[i]))
		}
	}
	return c
}

// references is the committed record file: outputs of fixed emulations
// of the default seed, generated from the program and re-checked by
// every run of the matching workload, whatever its seed.
type references struct {
	Seed      int64    `json:"seed"`
	DeepQueue []record `json:"deep_queue"`
	StudyMix  studyRef `json:"study_mix"`
}

// studyRef is one study_mix study: its first scenario's cells and the
// digest of the whole aggregate (every combo's exact-sum means,
// sketches and paired win counts).
type studyRef struct {
	Cells           []record     `json:"cells"`
	AggregateSHA256 string       `json:"aggregate_sha256"`
	Means           [][5]float64 `json:"means"` // per combo, for a reader; covered by the digest
}

const refDeepQueue = 2 // deep_queue records kept

func refDeepScenarios(seed int64) []*scenario.Scenario {
	var out []*scenario.Scenario
	for k := 0; k < refDeepQueue; k++ {
		out = append(out, deepQueueScenario(seed, k))
	}
	return out
}

// refStudy runs the first study of the seed and summarizes it.
func refStudy(ctx context.Context, seed int64) (studyRef, error) {
	var ref studyRef
	st, cells, err := runStudy(ctx, nil, studySeed(seed, 0), func(i int) bool { return i == 0 }, nil, nil)
	if err != nil {
		return ref, err
	}
	data, err := json.Marshal(st)
	if err != nil {
		return ref, err
	}
	sum := sha256.Sum256(data)
	ref.AggregateSHA256 = hex.EncodeToString(sum[:])
	for c := range st.Combos {
		var m [5]float64
		for k := 0; k < population.NumMetrics; k++ {
			m[k], _ = st.Mean(c, k)
		}
		ref.Means = append(ref.Means, m)
	}
	for _, cell := range cells {
		ref.Cells = append(ref.Cells, cell.rec)
	}
	return ref, nil
}

func computeReferences(ctx context.Context, seed int64) (*references, error) {
	refs := &references{Seed: seed}
	var errs []error
	refs.DeepQueue, errs = rerun(ctx, nil, nil, refDeepScenarios(seed))
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	var err error
	refs.StudyMix, err = refStudy(ctx, seed)
	return refs, err
}

func writeReferences(ctx context.Context, path string) error {
	refs, err := computeReferences(ctx, defaultSeed)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadReferences(path string) (*references, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var refs references
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &refs, nil
}

// checkReferences re-runs the workload's committed records and compares.
func checkReferences(ctx context.Context, path, workload string) checkResult {
	var c checkResult
	refs, err := loadReferences(path)
	if err != nil {
		c.attempted++
		c.mismatch("reference records unreadable: %v", err)
		return c
	}
	return refs.check(ctx, workload)
}

func (refs *references) check(ctx context.Context, workload string) checkResult {
	var c checkResult
	switch workload {
	case "deep_queue":
		c.attempted += len(refs.DeepQueue)
		c.add(compareRefs(ctx, refDeepScenarios(refs.Seed), refs.DeepQueue))
	case "study_mix":
		c.attempted += len(refs.StudyMix.Cells) + 1
		got, err := refStudy(ctx, refs.Seed)
		if err != nil {
			c.fail("reference study: %v", err)
			return c
		}
		want := refs.StudyMix
		if got.AggregateSHA256 != want.AggregateSHA256 {
			c.mismatch("reference study aggregate digest %s, want %s", got.AggregateSHA256, want.AggregateSHA256)
		}
		if len(got.Cells) != len(want.Cells) {
			c.mismatch("reference study has %d cells, want %d", len(got.Cells), len(want.Cells))
			return c
		}
		for i := range want.Cells {
			if d := want.Cells[i].diff(got.Cells[i]); d != "" {
				c.mismatch("reference study cell: %s", d)
			}
		}
	}
	return c
}

func compareRefs(ctx context.Context, scns []*scenario.Scenario, want []record) checkResult {
	if len(want) != len(scns) {
		var c checkResult
		c.mismatch("reference file has %d records, want %d", len(want), len(scns))
		return c
	}
	return compareRuns(ctx, nil, nil, scns, want)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
