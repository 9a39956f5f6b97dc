package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 5}, {75, 8}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {1, 1}, {100, 10}} {
		if got := nearestRank(xs, tc.p); got != tc.want {
			t.Errorf("p%g of 1..10 = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("empty sample: %g", got)
	}
	// 99.9 of 1000 is rank 999 exactly, not rounded up by float error.
	if r := rank(99.9, 1000); r != 999 {
		t.Errorf("rank(99.9, 1000) = %d, want 999", r)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 50, false}, {19, 50, false}, {20, 50, true}, {39, 50, true},
		{40, 75, true}, {64, 75, true}, {99, 75, true}, {100, 90, true},
		{128, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true},
		{9999, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g,%v, want %g,%v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(p, tc.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", tc.n, p, tc.n-rank(p, tc.n))
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.P50 != 3 || s.TailOK {
		t.Errorf("summarize(5 samples) = %+v", s)
	}
}

// The inputs, the served replay's open-loop schedule and its request
// mix are pure functions of the seed.
func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	take := func(seed int64) []request {
		s := newRequestStream(seed)
		out := make([]request, 2000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, c := take(7), take(7), take(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, r := range a {
		if r.Pool < 0 || r.Pool >= servePool {
			t.Fatalf("pool index %d out of range", r.Pool)
		}
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatalf("due times not ordered at %d", i)
		}
	}
	if rate := float64(len(a)-1) / a[len(a)-1].Due.Seconds(); rate < 0.9*serveRPS || rate > 1.1*serveRPS {
		t.Errorf("offered rate %.1f/s, want about %d", rate, serveRPS)
	}
	// One replay's requests reach more distinct scenarios than the
	// service's 128-entry cache holds, and repeat some: it both evicts
	// and hits.
	seen := map[int]bool{}
	for _, r := range a[:serveRequests] {
		seen[r.Pool] = true
	}
	if len(seen) <= 128 || len(seen) >= serveRequests {
		t.Errorf("a replay draws %d distinct scenarios in %d requests", len(seen), serveRequests)
	}

	same := func(x, y any) bool {
		jx, _ := json.Marshal(x)
		jy, _ := json.Marshal(y)
		return string(jx) == string(jy)
	}
	for k := 0; k < 20; k++ {
		if !same(deepQueueScenario(3, k), deepQueueScenario(3, k)) ||
			!same(studyScenario(3, k), studyScenario(3, k)) {
			t.Fatalf("input %d is not a pure function of the seed", k)
		}
		if same(deepQueueScenario(3, k), deepQueueScenario(4, k)) {
			t.Fatalf("deep_queue input %d ignores the seed", k)
		}
		if q := estQueue(studyScenario(3, k)); q > maxStudyQueue {
			t.Fatalf("study scenario %d has estimated queue %.0f", k, q)
		}
	}
	if !same(studyCells(3, 100), studyCells(3, 100)) || same(studyCells(3, 100), studyCells(4, 100)) {
		t.Fatal("study cells are not a pure function of the seed")
	}
}

// The committed records reproduce, and a perturbed record fails the
// check as a wrong output.
func TestReferenceCheckFailsOnPerturbedRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs emulations")
	}
	ctx := context.Background()
	path := filepath.Join("testdata", "records.json")
	for _, wl := range []string{"deep_queue", "study_mix"} {
		refs, err := loadReferences(path)
		if err != nil {
			t.Fatal(err)
		}
		if c := refs.check(ctx, wl); c.failed != 0 || c.wrong != 0 || c.attempted == 0 {
			t.Fatalf("%s: committed records do not reproduce: %+v", wl, c)
		}
		switch wl {
		case "deep_queue":
			refs.DeepQueue[1].Metrics[2] *= 1 + 1e-12
		case "study_mix":
			refs.StudyMix.Cells[3].Events++
		}
		if c := refs.check(ctx, wl); c.wrong != 1 || c.failed != 1 {
			t.Errorf("%s: perturbed record not caught: %+v", wl, c)
		}
	}
	// A digest that does not match fails too.
	refs, err := loadReferences(path)
	if err != nil {
		t.Fatal(err)
	}
	refs.StudyMix.AggregateSHA256 = "0" + refs.StudyMix.AggregateSHA256[1:]
	if c := refs.check(ctx, "study_mix"); c.wrong == 0 {
		t.Errorf("perturbed study digest not caught: %+v", c)
	}
	if c := checkReferences(ctx, filepath.Join(t.TempDir(), "missing.json"), "deep_queue"); c.wrong == 0 {
		t.Errorf("missing record file not caught: %+v", c)
	}
}

// fail_frac counts refused (429) and timed-out requests as failed.
func TestFailuresCount429AndTimeouts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/run", func(w http.ResponseWriter, r *http.Request) {
		var body struct{ Name string }
		_ = json.NewDecoder(r.Body).Decode(&body) // the test sends valid JSON
		switch body.Name {
		case "shed":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"err":"queue full"}`))
		case "hang":
			<-r.Context().Done()
		default:
			w.Write([]byte(`{"id":"j1","state":"done"}`))
		}
	})
	mux.HandleFunc("/api/jobs/j1/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"name":"ok","metrics":{"idle":0.5}}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	items := []item{
		{due: 0, body: []byte(`{"Name":"ok"}`), key: 0},
		{due: time.Millisecond, body: []byte(`{"Name":"shed"}`), key: 1},
		{due: 2 * time.Millisecond, body: []byte(`{"Name":"hang"}`), key: 2},
	}
	outs := loop{hc: srv.Client(), base: srv.URL, timeout: 200 * time.Millisecond}.open(context.Background(), items)
	attempted, failed := tally(outs)
	if attempted != 3 || failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", attempted, failed)
	}
	byKey := map[int]outcome{}
	for _, o := range outs {
		byKey[o.key] = o
	}
	if o := byKey[0]; o.err != nil || o.res.Name != "ok" || o.res.Metrics.Idle != 0.5 {
		t.Errorf("ok request: %+v", o)
	}
	if o := byKey[1]; !errors.Is(o.err, errShed) {
		t.Errorf("429 request: err %v, want errShed", o.err)
	}
	if o := byKey[2]; !errors.Is(o.err, context.DeadlineExceeded) {
		t.Errorf("hanging request: err %v, want a deadline error", o.err)
	}
}
