// Command perfbench is the repository benchmark. It runs one named
// workload against the emulator through the public functions of its
// packages (scenario, client, runner, population, serve, web and the
// kernel packages), measures it for a fixed wall time, checks the
// outputs, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics — as the last line of standard output, one JSON
// object. See README.md for the workloads and metrics.
//
//	perfbench -workload deep_queue -seed 1 -seconds 30 -trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed reference records were
// generated from.
const defaultSeed = 1

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is what one timed phase of a workload measured.
type phase struct {
	// Throughput window: emulated client-days completed in elapsed.
	elapsed time.Duration
	simDays float64
	// opMs is the latency of the first deepLatencySample or
	// studyLatencySample user-facing operations, in ms. lat summarizes
	// it.
	opMs []float64
	lat  latencySummary
	// Allocation count over the whole phase.
	mallocs   uint64
	attempted int
	failed    int
	// notes are workload-specific lines for the human-readable report.
	notes []string
}

func (p *phase) daysPerSec() float64 { return p.simDays / p.elapsed.Seconds() }

// workload is one benchmark workload. setup may be called repeatedly;
// each call replaces the previous state (stopping anything it
// started). measure runs one timed phase; verify re-checks the outputs
// of every phase measured since setup; layers returns the traced run's
// per-layer metrics, running replay probes on the workload's own
// inputs for layers its timed phase does not call.
type workload interface {
	setup(ctx context.Context) error
	measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	verify(ctx context.Context, tr *tracer) checkResult
	layers(ctx context.Context, tr *tracer) (*layerAcc, checkResult, error)
	teardown()
	// opName names the user-facing operation and the names its latency
	// metrics are printed under.
	opName() (op, p50, tail string)
}

// checkResult counts operations and their failures. wrong counts the
// failures that were wrong outputs, as opposed to errors, timeouts or
// refused requests.
type checkResult struct {
	attempted, failed, wrong int
	msgs                     []string
}

func (c *checkResult) add(o checkResult) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.wrong += o.wrong
	c.msgs = append(c.msgs, o.msgs...)
}

// fail records one operation that returned an error.
func (c *checkResult) fail(format string, args ...any) {
	c.failed++
	c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
}

// mismatch records one operation whose output was wrong.
func (c *checkResult) mismatch(format string, args ...any) {
	c.wrong++
	c.fail("mismatch: "+format, args...)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "deep_queue":
		return &deepQueue{seed: seed}, nil
	case "study_mix":
		return &studyMix{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want deep_queue or study_mix)", name)
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, args []string) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: deep_queue or study_mix")
	seed := fl.Int64("seed", defaultSeed, "input seed")
	seconds := fl.Int("seconds", 30, "measured wall seconds")
	trace := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	root := fl.String("root", ".", "repository root (reference records, trace output)")
	writeRefs := fl.Bool("write-refs", false, "regenerate the reference records for the default seed and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	refsPath := filepath.Join(*root, "perfbench", "testdata", "records.json")
	ctx := context.Background()
	if *writeRefs {
		return writeReferences(ctx, refsPath)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		return err
	}

	host := hostFingerprint(*root)
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "# host %s\n", hj)
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *trace)

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.teardown()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	d := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		// The traced run measures the same workload twice, untraced and
		// traced, in the same total time.
		d /= 2
	}
	ph, err := w.measure(ctx, d, nil)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	chk := checkResult{attempted: ph.attempted, failed: ph.failed}
	var tr *tracer
	var acc *layerAcc
	var traced *phase
	if *trace == 1 {
		tr = newTracer()
		gc := startGC()
		if traced, err = w.measure(ctx, d, tr); err != nil {
			return fmt.Errorf("traced measure: %w", err)
		}
		gcFrac := gc.frac()
		chk.attempted += traced.attempted
		chk.failed += traced.failed
		chk.add(w.verify(ctx, tr))
		var lchk checkResult
		if acc, lchk, err = w.layers(ctx, tr); err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		acc.gcFrac = gcFrac
		chk.add(lchk)
	} else {
		chk.add(w.verify(ctx, nil))
	}
	chk.add(checkReferences(ctx, refsPath, *name))
	for _, m := range chk.msgs {
		fmt.Fprintln(stdout, "# FAILED:", m)
	}
	// correct covers output checks only: shed or timed-out requests are
	// failures without being wrong answers.
	out := output{Correct: chk.wrong == 0, Attempted: max(chk.attempted, 1), Failed: chk.failed}
	out.Metrics = endToEnd(stdout, w, ph, setups, out.Failed, out.Attempted)
	if *trace == 1 {
		lm := acc.metrics(tr)
		lm["trace.overhead_frac"] = metric{(ph.daysPerSec() - traced.daysPerSec()) / ph.daysPerSec(), "frac"}
		fmt.Fprintf(stdout, "# per-layer metrics (traced phase and replays):\n")
		names := make([]string, 0, len(lm))
		for n := range lm {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "#   %-32s %14.6g %s\n", n, lm[n].Value, lm[n].Unit)
		}
		path, err := writeTrace(stdout, filepath.Join(*root, ".bench_build", "trace"),
			fmt.Sprintf("%s-seed%d.json", *name, *seed), tr)
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
		out.Metrics = lm
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return errors.New("output check failed")
	}
	return nil
}

// endToEnd computes and prints the end-to-end metrics of an untraced
// phase.
func endToEnd(w io.Writer, wl workload, ph *phase, setups []float64, failed, attempted int) map[string]metric {
	op, p50Name, tailName := wl.opName()
	lat := ph.lat
	m := map[string]metric{
		"sim_days_per_s":     {ph.daysPerSec(), "1/s"},
		"op_ms_p50":          {lat.P50, "ms"},
		"op_ms_tail":         {lat.Tail, "ms"},
		"allocs_per_sim_day": {float64(ph.mallocs) / ph.simDays, "count"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"setup_s":            {median(setups), "s"},
	}
	tailNote := fmt.Sprintf("p%g", lat.TailP)
	if !lat.TailOK {
		tailNote += ", sample too small for a tail"
	}
	fmt.Fprintf(w, "# operation: %s; %d in the latency sample\n", op, lat.N)
	for _, n := range ph.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# sim_days_per_s     %12.4f 1/s\n", m["sim_days_per_s"].Value)
	fmt.Fprintf(w, "# %-18s %12.4f ms   (op_ms_p50, n=%d)\n", p50Name, lat.P50, lat.N)
	fmt.Fprintf(w, "# %-18s %12.4f ms   (op_ms_tail at %s, n=%d)\n", tailName, lat.Tail, tailNote, lat.N)
	fmt.Fprintf(w, "# allocs_per_sim_day %12.1f count\n", m["allocs_per_sim_day"].Value)
	fmt.Fprintf(w, "# peak_rss_mb        %12.2f MB\n", m["peak_rss_mb"].Value)
	fmt.Fprintf(w, "# fail_frac          %12.4f       (%d failed of %d attempted)\n",
		float64(failed)/float64(attempted), failed, attempted)
	fmt.Fprintf(w, "# setup_s            %12.4f s    (median of %v)\n", m["setup_s"].Value, setups)
	return m
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostInfo is printed with every run so results can be tied to the
// machine and source they came from.
type hostInfo struct {
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func hostFingerprint(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), CPU: cpuModel(), Go: runtime.Version(), Commit: "unknown", Source: sourceHash(root)}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source file and go.mod under root, so a
// run made outside a git checkout still names the code it measured.
func sourceHash(root string) string {
	var files []string
	//nolint:errcheck // a walk error leaves a partial list, which the hash then reflects
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
