package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"bce/internal/fetch"
	"bce/internal/host"
	"bce/internal/sched"
	"bce/internal/stats"
)

func sampleScenario() *Scenario {
	return &Scenario{
		Name:         "test",
		DurationDays: 1,
		Seed:         7,
		Host: HostJSON{
			NCPU: 4, CPUGFlops: 2.5,
			NGPU: 1, GPUGFlops: 100,
			MinQueueHours: 1, MaxQueueHours: 4,
		},
		Projects: []ProjectJSON{
			{
				Name: "alpha", Share: 100,
				Apps: []AppJSON{{Name: "a", NCPUs: 1, MeanSecs: 1000, LatencySecs: 10000}},
			},
			{
				Name: "beta", Share: 50,
				Apps: []AppJSON{{Name: "g", NCPUs: 0.2, NGPUs: 1, MeanSecs: 500, LatencySecs: 5000}},
			},
		},
		Policies: Policies{JobSched: "JS-GLOBAL", JobFetch: "JF-ORIG", RECHalfLife: 86400},
	}
}

func TestConfigConversion(t *testing.T) {
	s := sampleScenario()
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.JobSched != sched.JSGlobal || cfg.JobFetch != fetch.JFOrig {
		t.Fatalf("policies wrong: %v %v", cfg.JobSched, cfg.JobFetch)
	}
	if cfg.Duration != 86400 {
		t.Fatalf("duration = %v, want 86400", cfg.Duration)
	}
	if cfg.Host.Hardware.Proc[host.CPU].Count != 4 {
		t.Fatal("CPU count wrong")
	}
	if cfg.Host.Hardware.Proc[host.NvidiaGPU].FLOPSPerInst != 100e9 {
		t.Fatal("GPU flops wrong")
	}
	if cfg.Host.Prefs.MinQueue != 3600 || cfg.Host.Prefs.MaxQueue != 4*3600 {
		t.Fatalf("queue prefs wrong: %+v", cfg.Host.Prefs)
	}
	if len(cfg.Projects) != 2 || cfg.Projects[1].Apps[0].Usage.GPUUsage != 1 {
		t.Fatal("project conversion wrong")
	}
	if cfg.RECHalfLife != 86400 {
		t.Fatal("REC half-life not passed through")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := sampleScenario()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Projects) != 2 || got.Projects[1].Apps[0].NGPUs != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","bogus":1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestLoadRejectsInvalidScenario(t *testing.T) {
	// Valid JSON, invalid semantics (no projects).
	_, err := Load(strings.NewReader(`{"name":"x","host":{"ncpu":1,"cpu_gflops":1}}`))
	if err == nil {
		t.Fatal("scenario without projects accepted")
	}
}

// TestConfigRejectsBadAppUsage checks the input boundary: a negative
// working set would inflate the scheduler's memory budget, so Config
// must refuse it like any other bad device usage.
func TestConfigRejectsBadAppUsage(t *testing.T) {
	for _, app := range []string{
		`{"name":"a","ncpus":1,"mem_mb":-100,"mean_secs":100,"latency_secs":1000}`,
		`{"name":"a","ncpus":-1,"mean_secs":100,"latency_secs":1000}`,
	} {
		doc := `{"name":"x","duration_days":1,"host":{"ncpu":2,"cpu_gflops":1},
			"projects":[{"name":"p","share":1,"apps":[` + app + `]}]}`
		sc := new(Scenario)
		if err := json.Unmarshal([]byte(doc), sc); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if _, err := sc.Config(); err == nil {
			t.Fatalf("Config accepted the app %s", app)
		}
	}
	s := sampleScenario()
	s.Projects[0].Apps[0].MemMB = math.NaN()
	if _, err := s.Config(); err == nil {
		t.Fatal("Config accepted a NaN working set")
	}
	s.Projects[0].Apps[0].MemMB = 100
	if _, err := s.Config(); err != nil {
		t.Fatalf("Config rejected a valid working set: %v", err)
	}
}

func TestPolicyParsing(t *testing.T) {
	for in, want := range map[string]sched.Policy{
		"": sched.JSLocal, "JS-LOCAL": sched.JSLocal, "global": sched.JSGlobal, "JS-WRR": sched.JSWRR,
	} {
		got, err := ParseJobSched(in)
		if err != nil || got != want {
			t.Fatalf("ParseJobSched(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseJobSched("nope"); err == nil {
		t.Fatal("bad policy accepted")
	}
	for in, want := range map[string]fetch.PolicyKind{
		"": fetch.JFHysteresis, "JF-ORIG": fetch.JFOrig, "hysteresis": fetch.JFHysteresis,
	} {
		got, err := ParseJobFetch(in)
		if err != nil || got != want {
			t.Fatalf("ParseJobFetch(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseJobFetch("nope"); err == nil {
		t.Fatal("bad fetch policy accepted")
	}
}

func TestGPUKinds(t *testing.T) {
	s := sampleScenario()
	s.Host.GPUKind = "ati"
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Host.Hardware.Proc[host.AtiGPU].Count != 1 {
		t.Fatal("ATI GPU not built")
	}
	s.Host.GPUKind = "voodoo"
	if _, err := s.Config(); err == nil {
		t.Fatal("unknown GPU kind accepted")
	}
}

func TestCheckpointNever(t *testing.T) {
	s := sampleScenario()
	s.Projects[0].Apps[0].CheckpointS = -1
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Projects[0].Apps[0].CheckpointPeriod != 0 {
		t.Fatal("checkpoint -1 should mean never (period 0)")
	}
	s.Projects[0].Apps[0].CheckpointS = 0
	cfg, _ = s.Config()
	if cfg.Projects[0].Apps[0].CheckpointPeriod != 60 {
		t.Fatal("checkpoint default should be 60")
	}
}

const sampleXML = `<client_state>
  <host_info>
    <p_ncpus>4</p_ncpus>
    <p_fpops>2.5e9</p_fpops>
    <m_nbytes>8.0e9</m_nbytes>
    <coprocs>
      <coproc_cuda>
        <count>1</count>
        <peak_flops>1.0e11</peak_flops>
      </coproc_cuda>
    </coprocs>
  </host_info>
  <global_preferences>
    <work_buf_min_days>0.1</work_buf_min_days>
    <work_buf_additional_days>0.4</work_buf_additional_days>
    <leave_apps_in_memory>1</leave_apps_in_memory>
  </global_preferences>
  <project>
    <master_url>http://setiathome.berkeley.edu/</master_url>
    <project_name>SETI@home</project_name>
    <resource_share>100</resource_share>
  </project>
  <project>
    <master_url>http://einstein.phys.uwm.edu/</master_url>
    <project_name>Einstein@Home</project_name>
    <resource_share>50</resource_share>
  </project>
  <app_version>
    <app_name>setiathome_enhanced</app_name>
    <avg_ncpus>0.2</avg_ncpus>
    <flops>9.0e10</flops>
    <coproc><type>CUDA</type><count>1</count></coproc>
  </app_version>
  <app_version>
    <app_name>einstein_S5R6</app_name>
    <avg_ncpus>1</avg_ncpus>
    <flops>2.5e9</flops>
  </app_version>
  <workunit>
    <name>wu_seti_1</name>
    <app_name>setiathome_enhanced</app_name>
    <rsc_fpops_est>9.0e13</rsc_fpops_est>
  </workunit>
  <workunit>
    <name>wu_e_1</name>
    <app_name>einstein_S5R6</app_name>
    <rsc_fpops_est>2.5e13</rsc_fpops_est>
  </workunit>
  <result>
    <name>r1</name>
    <wu_name>wu_seti_1</wu_name>
    <project_url>http://setiathome.berkeley.edu/</project_url>
    <received_time>1000</received_time>
    <report_deadline>87400</report_deadline>
  </result>
  <result>
    <name>r2</name>
    <wu_name>wu_e_1</wu_name>
    <project_url>http://einstein.phys.uwm.edu/</project_url>
    <received_time>1000</received_time>
    <report_deadline>605800</report_deadline>
  </result>
</client_state>`

func TestImportClientState(t *testing.T) {
	s, err := ImportClientState(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Host.NCPU != 4 || s.Host.CPUGFlops != 2.5 || s.Host.NGPU != 1 {
		t.Fatalf("host import wrong: %+v", s.Host)
	}
	if s.Host.GPUGFlops != 100 {
		t.Fatalf("GPU GFlops = %v, want 100", s.Host.GPUGFlops)
	}
	if math.Abs(s.Host.MinQueueHours-2.4) > 1e-9 || !s.Host.LeaveInMemory {
		t.Fatalf("prefs import wrong: %+v", s.Host)
	}
	if len(s.Projects) != 2 {
		t.Fatalf("projects = %d, want 2", len(s.Projects))
	}
	seti := s.Projects[0]
	if seti.Name != "SETI@home" || seti.Share != 100 {
		t.Fatalf("project import wrong: %+v", seti)
	}
	app := seti.Apps[0]
	// 9e13 fpops at 9e10 flops = 1000 s; deadline 87400-1000 = 86400.
	if app.MeanSecs != 1000 || app.LatencySecs != 86400 {
		t.Fatalf("app stream wrong: %+v", app)
	}
	if app.NGPUs != 1 || app.GPUKind != "nvidia" || app.NCPUs != 0.2 {
		t.Fatalf("app usage wrong: %+v", app)
	}
	// The imported scenario must build a valid config.
	if _, err := s.Config(); err != nil {
		t.Fatal(err)
	}
}

func TestImportRejectsEmpty(t *testing.T) {
	if _, err := ImportClientState(strings.NewReader("<client_state></client_state>")); err == nil {
		t.Fatal("empty state accepted")
	}
	if _, err := ImportClientState(strings.NewReader("not xml at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestImportProjectWithoutResults(t *testing.T) {
	xmlstr := `<client_state>
  <host_info><p_ncpus>2</p_ncpus><p_fpops>1e9</p_fpops><m_nbytes>4e9</m_nbytes></host_info>
  <project><master_url>http://x/</master_url><resource_share>100</resource_share></project>
</client_state>`
	s, err := ImportClientState(strings.NewReader(xmlstr))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Projects) != 1 || len(s.Projects[0].Apps) != 1 {
		t.Fatal("idle project should get a synthetic app")
	}
	if s.Projects[0].Name != "http://x/" {
		t.Fatal("project without name should use URL")
	}
}

func TestSampleProducesValidScenarios(t *testing.T) {
	rng := stats.NewRNG(42)
	for i := 0; i < 200; i++ {
		s := Sample(rng, PopulationParams{})
		cfg, err := s.Config()
		if err != nil {
			t.Fatalf("sample %d invalid: %v\n%+v", i, err, s)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("sample %d config invalid: %v", i, err)
		}
		if len(s.Projects) < 1 || len(s.Projects) > 20 {
			t.Fatalf("sample %d has %d projects", i, len(s.Projects))
		}
	}
}

func TestSampleDiversity(t *testing.T) {
	rng := stats.NewRNG(1)
	gpus, sporadic, multi := 0, 0, 0
	const n = 300
	for i := 0; i < n; i++ {
		s := Sample(rng, PopulationParams{})
		if s.Host.NGPU > 0 {
			gpus++
		}
		if s.Host.Avail.MeanOffHours > 0 {
			sporadic++
		}
		if len(s.Projects) > 1 {
			multi++
		}
	}
	if gpus < n/10 || gpus > n*3/5 {
		t.Fatalf("GPU hosts %d/%d, want roughly 30%%", gpus, n)
	}
	if sporadic < n/4 {
		t.Fatalf("sporadic hosts %d/%d, want majority-ish", sporadic, n)
	}
	if multi < n/4 {
		t.Fatalf("multi-project scenarios %d/%d, want many", multi, n)
	}
}

func TestComputeHoursBuildTrace(t *testing.T) {
	s := sampleScenario()
	s.Host.ComputeHours = [2]float64{9, 17}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.Host.Avail.Trace[host.Compute]
	if len(tr) != 3 {
		t.Fatalf("compute-hours trace = %v", tr)
	}
	if f := cfg.Host.Avail.Frac(host.Compute); math.Abs(f-8.0/24) > 1e-9 {
		t.Fatalf("availability fraction %v, want 1/3", f)
	}
	// Explicit trace wins over compute hours.
	s.Host.AvailTrace = []TracePeriodJSON{{Hours: 1, On: true}, {Hours: 1, On: false}}
	cfg, err = s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Host.Avail.Trace[host.Compute]) != 2 {
		t.Fatal("explicit trace should override compute hours")
	}
}

func TestSpreadPolicyParsed(t *testing.T) {
	got, err := ParseJobFetch("JF-SPREAD")
	if err != nil || got != fetch.JFSpread {
		t.Fatalf("ParseJobFetch(JF-SPREAD) = %v, %v", got, err)
	}
}
