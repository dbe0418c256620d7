package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"coherencesim/internal/service"
)

// tmpRoot is where the benchmark keeps its scratch directories: inside
// the checkout, next to the build output.
const tmpRoot = ".bench_build/tmp"

func mkTemp(pattern string) (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, pattern)
}

// serviceWL is service_mix: the serving plane behind httptest, driven by
// one closed-loop client. A unit is one whole pass on a fresh data
// directory: phase A (cold jobs interleaved with memory replays), a
// restart on the same directory, phase B (store replays, then memory
// replays).
type serviceWL struct {
	families, replaysA, replaysB int

	p     int
	seed  int64
	speed *speedometer
}

func (w *serviceWL) setup(seed int64, p int) error {
	w.p, w.seed = p, seed
	if u := w.pass(newMixPlan(seed, 1, 3, 1), nil, 0); len(u.notes) > 0 {
		return fmt.Errorf("warm-up pass: %s", u.notes[0])
	}
	return nil
}

func (w *serviceWL) teardown()              {}
func (w *serviceWL) cycle() int             { return 1 }
func (w *serviceWL) observe(s *speedometer) { w.speed = s }

func (w *serviceWL) unit(i int, rec *recorder, parent int) unitResult {
	// Every unit of a run gets its own order, all from the one seed.
	u := w.pass(newMixPlan(w.seed*1000003+int64(i), w.families, w.replaysA, w.replaysB), rec, parent)
	u.key = fmt.Sprintf("service/%d", w.families)
	return u
}

// servicePass is the per-pass detail behind the service metrics.
type servicePass struct {
	Cold        []time.Duration // POST to terminal status
	SubmitMiss  []time.Duration // POST to 202
	StatusGet   []time.Duration // GET of a finished job's document
	ReplayMem   []time.Duration // re-POST served from the memory cache
	ReplayStore []time.Duration // first re-POST after the restart
	ResultBytes []float64       // document sizes
	Scrape      []time.Duration // GET /metrics
	Restart     time.Duration   // close + service.New on the same directory
	Counters    map[string]uint64
}

// liveService is one service.New behind an httptest server.
type liveService struct {
	svc  *service.Service
	swap *swapHandler
	ts   *httptest.Server
}

func startService(dir string, p int) (*liveService, error) {
	svc, err := service.New(service.Config{DataDir: dir, Jobs: 1, SimWorkers: p})
	if err != nil {
		return nil, err
	}
	s := &liveService{svc: svc, swap: &swapHandler{}}
	s.swap.set(svc.Handler())
	s.ts = httptest.NewServer(s.swap)
	return s, nil
}

func (s *liveService) stop() {
	s.ts.Close()
	s.svc.Scheduler().Close()
	s.svc.Coordinator().Close()
}

// mixClient is the one closed-loop connection.
type mixClient struct {
	http *http.Client
	base string
}

func newMixClient() *mixClient {
	return &mixClient{http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *mixClient) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

func specBody(s mixSpec) []byte {
	b, err := json.Marshal(service.JobSpec{
		Kind: "experiment", Experiment: s.Experiment, Scale: "quick",
		MetricsInterval: s.MetricsInterval, Breakdown: s.Breakdown,
	})
	if err != nil { // a JobSpec is plain data
		panic(err)
	}
	return b
}

// scrape reads /metrics into name -> value for the plain counter lines.
func (c *mixClient) scrape() (map[string]uint64, time.Duration, error) {
	t0 := time.Now()
	code, _, body, err := c.do("GET", "/metrics", nil)
	d := time.Since(t0)
	if err != nil || code != http.StatusOK {
		return nil, d, fmt.Errorf("GET /metrics: HTTP %d: %v", code, err)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseUint(val, 10, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, d, nil
}

// pass runs one whole mix. Any failure is counted, noted and the pass
// carries on where it can, so one bad operation is one failed operation.
func (w *serviceWL) pass(plan mixPlan, rec *recorder, parent int) unitResult {
	u := unitResult{service: &servicePass{Counters: make(map[string]uint64)}}
	sp := u.service
	dir, err := mkTemp("service-")
	if err != nil {
		u.attempted, u.failed, u.notes = 1, 1, []string{err.Error()}
		return u
	}
	defer os.RemoveAll(dir)

	bodies := make([][]byte, len(plan.Specs))
	for i, s := range plan.Specs {
		bodies[i] = specBody(s)
	}
	first := make([][]byte, len(plan.Specs)) // the first terminal document per spec
	client := newMixClient()
	defer client.http.CloseIdleConnections()

	start := func(phase string) (*liveService, int, bool) {
		s, err := startService(dir, w.p)
		if err != nil {
			u.attempted++
			u.fail("service.New: %v", err)
			return nil, 0, false
		}
		client.base = s.ts.URL
		id := rec.begin("phase", phase, parent, 0)
		if rec != nil {
			group := rec.groupOf(id)
			s.swap.set(newMuxWrap(s.svc.Handler(), rec, func() (int, int) { return id, group }))
		}
		return s, id, true
	}
	var replays []float64 // every successful replay's latency
	replay := func(spec int, into *[]time.Duration) {
		u.attempted++
		t0 := time.Now()
		code, hdr, body, err := client.do("POST", "/v1/jobs", bodies[spec])
		d := time.Since(t0)
		switch {
		case err != nil || code != http.StatusOK || hdr.Get("X-Cache") != "hit":
			u.fail("replay of %s: HTTP %d X-Cache %q: %v", plan.Specs[spec].Experiment, code, hdr.Get("X-Cache"), err)
		case !bytes.Equal(body, first[spec]):
			u.fail("replay of %s differs from its first document", plan.Specs[spec].Experiment)
		default:
			*into = append(*into, d)
			replays = append(replays, d.Seconds())
		}
	}

	var paused time.Duration // reference samples, left out of the pass time
	t0 := time.Now()
	a, span, ok := start("phase A")
	if !ok {
		return u
	}
	for _, op := range plan.PhaseA {
		if op.Kind == opReplay {
			replay(op.Spec, &sp.ReplayMem)
			continue
		}
		u.attempted++
		name := plan.Specs[op.Spec].Experiment
		c0 := time.Now()
		code, _, body, err := client.do("POST", "/v1/jobs", bodies[op.Spec])
		submit := time.Since(c0)
		var st service.JobStatus
		if err != nil || code != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
			u.fail("submit %s: HTTP %d: %v", name, code, err)
			continue
		}
		// The event stream ends when the job is terminal: no polling.
		if code, _, _, err := client.do("GET", "/v1/jobs/"+st.ID+"/events", nil); err != nil || code != http.StatusOK {
			u.fail("events of %s: HTTP %d: %v", name, code, err)
			continue
		}
		cold := time.Since(c0)
		g0 := time.Now()
		code, _, doc, err := client.do("GET", "/v1/jobs/"+st.ID, nil)
		get := time.Since(g0)
		if err != nil || code != http.StatusOK || json.Unmarshal(doc, &st) != nil || st.Status != service.StatusDone {
			u.fail("job %s: HTTP %d status %q: %v", name, code, st.Status, err)
			continue
		}
		first[op.Spec] = doc
		sp.SubmitMiss = append(sp.SubmitMiss, submit)
		sp.Cold = append(sp.Cold, cold)
		sp.StatusGet = append(sp.StatusGet, get)
		sp.ResultBytes = append(sp.ResultBytes, float64(len(doc)))
		paused += w.speed.sampleIfDue(speedGap)
	}
	counters, scrape, err := client.scrape()
	if err != nil {
		u.attempted++
		u.fail("%v", err)
	}
	sp.Scrape = append(sp.Scrape, scrape)
	u.simCycles = counters["coherenced_sim_cycles_total"]
	for k, v := range counters {
		sp.Counters[k] = v
	}
	rec.end(span)

	r0 := time.Now()
	a.stop()
	b, span, ok := start("phase B")
	if !ok {
		return u
	}
	sp.Restart = time.Since(r0)
	for _, s := range plan.Store {
		replay(s, &sp.ReplayStore)
	}
	for _, s := range plan.Memory {
		replay(s, &sp.ReplayMem)
	}
	counters, scrape, err = client.scrape()
	if err != nil {
		u.attempted++
		u.fail("%v", err)
	}
	sp.Scrape = append(sp.Scrape, scrape)
	// Counters restart with the service; the pass total is A + B.
	for k, v := range counters {
		sp.Counters[k] += v
	}
	rec.end(span)
	b.stop()
	u.wall = time.Since(t0) - paused
	settle()
	// The mix's operations are its replays, at their typical latency: a
	// handful of millisecond stragglers must not set the rate.
	u.ops = len(replays)
	u.opTime = time.Duration(median(replays) * float64(len(replays)) * float64(time.Second))

	h := sha256.New()
	for _, doc := range first {
		h.Write(doc)
	}
	u.digest = hex.EncodeToString(h.Sum(nil))
	return u
}
