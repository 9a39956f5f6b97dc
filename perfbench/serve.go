package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"bce/internal/client"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/scenario"
	"bce/internal/serve"
	"bce/internal/web"
)

// requestTimeout bounds one request; a request that takes longer counts
// as failed.
const requestTimeout = 30 * time.Second

// webServer is an in-process bceweb serving on loopback, and an HTTP
// client limited to nproc connections.
type webServer struct {
	ws     *web.Server
	hs     *http.Server
	base   string
	cancel context.CancelFunc
	served chan error // Serve's return value
	client *http.Client
}

func startWeb(ctx context.Context) (*webServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := web.NewServer("") // worker pool of GOMAXPROCS = nproc, 128-entry result cache
	sctx, cancel := context.WithCancel(ctx)
	ws.Start(sctx)
	s := &webServer{
		ws: ws, hs: &http.Server{Handler: ws.Handler()}, base: "http://" + ln.Addr().String(),
		cancel: cancel, served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(), DisableCompression: true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its goroutines.
func (s *webServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.cancel()
	s.ws.Svc.Wait()
	s.client.CloseIdleConnections()
}

// runResult is /api/jobs/{id}/result for a finished run. It is kept
// for every request until the output check, so it holds no map.
type runResult struct {
	Name    string        `json:"name"`
	Days    float64       `json:"days"`
	Sched   string        `json:"sched"`
	Fetch   string        `json:"fetch"`
	Metrics servedMetrics `json:"metrics"`
	Jobs    int           `json:"jobs"`
	Missed  int           `json:"missed"`
	RPCs    int           `json:"rpcs"`
}

// servedMetrics are the five figures of merit under the names
// metrics.Names gives them.
type servedMetrics struct {
	Idle           float64 `json:"idle"`
	Wasted         float64 `json:"wasted"`
	ShareViolation float64 `json:"share_violation"`
	Monotony       float64 `json:"monotony"`
	RPCsPerJob     float64 `json:"rpcs_per_job"`
}

func (m servedMetrics) values() [5]float64 {
	return [5]float64{m.Idle, m.Wasted, m.ShareViolation, m.Monotony, m.RPCsPerJob}
}

// errShed is a 429 from the service: the request was refused.
var errShed = errors.New("shed with 429")

// doRequest is one user request: POST the scenario, wait for the job to
// finish (server-sent events), GET and decode the result. Each phase is
// a span under parent when tracing.
func doRequest(ctx context.Context, hc *http.Client, base string, body []byte, tr *tracer, parent, op int) (res runResult, err error) {
	t0 := time.Now()
	var rep struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Err   string `json:"err"`
	}
	status, err := call(ctx, hc, http.MethodPost, base+"/api/run", body, &rep)
	tr.record("web.submit", parent, op, t0, time.Now())
	switch {
	case err != nil:
		return res, err
	case status == http.StatusTooManyRequests:
		return res, errShed
	case status != http.StatusOK && status != http.StatusAccepted:
		return res, fmt.Errorf("submit: status %d: %s", status, rep.Err)
	}
	if state := serve.State(rep.State); !state.Terminal() {
		t1 := time.Now()
		state, err = waitTerminal(ctx, hc, base+"/jobs/"+rep.ID+"/events")
		tr.record("web.wait", parent, op, t1, time.Now())
		if err != nil {
			return res, err
		}
		rep.State = string(state)
	}
	if rep.State != string(serve.StateDone) {
		return res, fmt.Errorf("job %s ended %s", rep.ID, rep.State)
	}
	t2 := time.Now()
	status, err = call(ctx, hc, http.MethodGet, base+"/api/jobs/"+rep.ID+"/result", nil, &res)
	tr.record("web.result", parent, op, t2, time.Now())
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: status %d", status)
	}
	return res, err
}

// call makes one HTTP request and decodes a JSON reply into out.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// waitTerminal reads a job's event stream until a terminal state.
func waitTerminal(ctx context.Context, hc *http.Client, url string) (serve.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if ev.State.Terminal() {
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("events: stream ended before the job finished")
}

// item is one request to send: its body and, in an open loop, when it
// is due after the loop starts.
type item struct {
	due  time.Duration
	body []byte
	key  int // caller's index of the request's input
}

// outcome is what became of one item.
type outcome struct {
	key int
	lag time.Duration // how late the generator released it
	res runResult
	err error
}

// tally counts outcomes: every request is attempted, and one that
// errored — refused with 429, timed out, or failed — is failed.
func tally(outs []outcome) (attempted, failed int) {
	for _, o := range outs {
		attempted++
		if o.err != nil {
			failed++
		}
	}
	return attempted, failed
}

// loop drives requests at one server.
type loop struct {
	hc      *http.Client
	base    string
	timeout time.Duration
	tr      *tracer
}

func (l loop) one(ctx context.Context, it item, due time.Time) outcome {
	op := l.tr.newOp()
	rctx, cancel := context.WithTimeout(ctx, l.timeout)
	defer cancel()
	root := l.tr.record("serve.request", 0, op, due, time.Time{})
	res, err := doRequest(rctx, l.hc, l.base, it.body, l.tr, root, op)
	l.tr.close(root)
	return outcome{key: it.key, res: res, err: err}
}

// open sends items on their schedule from one generator goroutine and
// executes them on nproc client goroutines; a request that finds every
// client busy waits, and that wait counts in its latency.
func (l loop) open(ctx context.Context, items []item) []outcome {
	out := make([]outcome, len(items))
	ready := make(chan int, len(items)) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				lag := out[i].lag
				out[i] = l.one(ctx, items[i], start.Add(items[i].due))
				out[i].lag = lag
			}
		}()
	}
	for i, it := range items {
		due := start.Add(it.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].lag = time.Since(due)
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}

// runDirect emulates each scenario through runner.Batch on nproc
// workers, timing the batch into tr and acc.
func runDirect(ctx context.Context, tr *tracer, acc *batchStats, scns []*scenario.Scenario) []runner.RunResult {
	specs := make([]runner.Spec, len(scns))
	for i, s := range scns {
		specs[i] = runner.Spec{Label: s.Name, Make: s.Config}
	}
	results, _ := timedBatch(ctx, tr, acc, 0, tr.newOp(), specs, runner.WithWorkers(nproc()))
	return results
}

// servedDiff describes how a served result differs from a direct run of
// the same scenario, or returns "".
func servedDiff(s *scenario.Scenario, got runResult, want *client.Result) string {
	if got.Name != s.Name || got.Days != s.DurationDays || got.Sched != s.Policies.JobSched || got.Fetch != s.Policies.JobFetch {
		return fmt.Sprintf("%s: served identity %s/%g/%s/%s", s.Name, got.Name, got.Days, got.Sched, got.Fetch)
	}
	if g, w := got.Metrics.values(), want.Metrics.Values(); g != w {
		return fmt.Sprintf("%s: served %v %v, direct run %v", s.Name, metrics.Names(), g, w)
	}
	m := want.Metrics
	if got.Jobs != m.CompletedJobs || got.Missed != m.MissedJobs || got.RPCs != m.RPCs {
		return fmt.Sprintf("%s: served jobs/missed/rpcs %d/%d/%d, direct run %d/%d/%d",
			s.Name, got.Jobs, got.Missed, got.RPCs, m.CompletedJobs, m.MissedJobs, m.RPCs)
	}
	return ""
}

// replayServed sends a served replay through a fresh in-process
// bceweb: serveRequests requests drawn by the seed's request stream
// from pool (servePool of the workload's own scenarios, each cut to at
// most serveDays), as an open loop at serveRPS. Every result is checked
// against a direct run of its scenario.
func (a *layerAcc) replayServed(ctx context.Context, tr *tracer, seed int64, pool []*scenario.Scenario) (checkResult, error) {
	var c checkResult
	if len(pool) != servePool {
		return c, fmt.Errorf("served replay needs %d scenarios, got %d", servePool, len(pool))
	}
	scns := make([]*scenario.Scenario, len(pool))
	bodies := make([][]byte, len(pool))
	for j, s := range pool {
		cut := *s
		cut.DurationDays = min(s.DurationDays, serveDays)
		body, err := json.Marshal(&cut)
		if err != nil {
			return c, err
		}
		scns[j], bodies[j] = &cut, body
	}
	replayFingerprint(tr, scns)
	stream := newRequestStream(seed)
	items := make([]item, serveRequests)
	used := make([]bool, len(scns))
	for i := range items {
		r := stream.next()
		items[i] = item{due: r.Due, body: bodies[r.Pool], key: r.Pool}
		used[r.Pool] = true
	}
	srv, err := startWeb(ctx)
	if err != nil {
		return c, err
	}
	defer srv.stop()
	st0 := srv.ws.Svc.Stats()
	outs := loop{hc: srv.client, base: srv.base, timeout: requestTimeout, tr: tr}.open(ctx, items)
	a.serve = statsDelta(st0, srv.ws.Svc.Stats())

	var distinct []*scenario.Scenario
	index := make([]int, len(scns)) // pool index → position in distinct
	for j, u := range used {
		if u {
			index[j] = len(distinct)
			distinct = append(distinct, scns[j])
		}
	}
	direct := runDirect(ctx, nil, nil, distinct)
	c.attempted, c.failed = tally(outs)
	for _, o := range outs {
		a.lagMs = append(a.lagMs, ms(o.lag))
		s, d := scns[o.key], direct[index[o.key]]
		switch {
		case o.err != nil:
			c.msgs = append(c.msgs, fmt.Sprintf("served replay of %s: %v", s.Name, o.err))
		case d.Err != nil:
			c.fail("direct run of %s: %v", s.Name, d.Err)
		default:
			if diff := servedDiff(s, o.res, d.Result); diff != "" {
				c.mismatch("%s", diff)
			}
		}
	}
	return c, nil
}

// replayFingerprint times serve.Fingerprint on each scenario's request.
func replayFingerprint(tr *tracer, scns []*scenario.Scenario) {
	op := tr.newOp()
	for _, s := range scns {
		id := tr.open("serve.Fingerprint", 0, op)
		_, _ = serve.Fingerprint(serve.Request{Kind: serve.KindRun, Scenario: s}) // cannot fail for a generated scenario
		tr.close(id)
	}
}

func statsDelta(a, b serve.Stats) serve.Stats {
	return serve.Stats{Runs: b.Runs - a.Runs, CacheHits: b.CacheHits - a.CacheHits, Shed: b.Shed - a.Shed}
}
