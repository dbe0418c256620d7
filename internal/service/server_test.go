package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/runner"
	"coherencesim/internal/trace"
)

// newTestServer builds a service around exec and mounts it on a real
// HTTP listener (SSE needs genuine flushing).
func newTestServer(t *testing.T, cfg Config, exec ExecFunc) (*httptest.Server, *Service) {
	t.Helper()
	svc, err := newService(cfg, exec)
	if err != nil {
		t.Fatal(err)
	}
	svc.to(StateReady)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Scheduler().Close()
		svc.Coordinator().Close()
	})
	return ts, svc
}

// execute runs one spec on a fresh executor: a batch of one, so no memo
// outlives the call.
func execute(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
	return BatchExecutor()(ctx, spec, simWorkers, progress)
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc JobStatus
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("unmarshal %q: %v", body, err)
		}
	}
	return resp, doc
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func pollDone(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d: %s", id, resp.StatusCode, body)
		}
		var doc JobStatus
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if isTerminal(doc.Status) {
			if doc.Status != StatusDone {
				t.Fatalf("job %s finished %s: %s", id, doc.Status, doc.Error)
			}
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (status %s)", id, doc.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitPollCacheHit is the core serving loop: submit, poll to
// completion, then verify the repeated identical request is served from
// the content-addressed cache byte-identical to the first response.
func TestSubmitPollCacheHit(t *testing.T) {
	var execs atomic.Int32
	ts, _ := newTestServer(t, Config{}, stubExec(&execs, nil))

	resp, doc := postJob(t, ts, `{"experiment":"fig8","scale":"quick"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit HTTP %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("first submit X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if doc.ID != goldenFig8QuickHash {
		t.Errorf("job id = %s, want the canonical spec hash %s", doc.ID, goldenFig8QuickHash)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+doc.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, doc.ID)
	}
	first := pollDone(t, ts, doc.ID)

	// Identical spec, different field order: cache hit, byte-identical.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scale":"quick","experiment":"fig8","kind":"experiment"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	second, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("resubmit = HTTP %d X-Cache %q, want 200/hit", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("cached response differs from the first completed document")
	}
	if execs.Load() != 1 {
		t.Errorf("simulation ran %d times, want once", execs.Load())
	}

	// Repeated GETs replay the same bytes too.
	_, again := getBody(t, ts.URL+"/v1/jobs/"+doc.ID)
	if !bytes.Equal(first, again) {
		t.Error("repeated GET differs from the first completed document")
	}
}

// TestReplayCarriesContentLength: a replayed document declares its
// length instead of arriving chunk-encoded — at 32 KB, far past the size
// up to which net/http would compute the length itself — and its bytes
// are the stored document's.
func TestReplayCarriesContentLength(t *testing.T) {
	big := strings.Repeat("a table row of a figure\n", 32<<10/24)
	ts, _ := newTestServer(t, Config{}, func(context.Context, JobSpec, int, func(runner.Snapshot)) (*JobResult, error) {
		return &JobResult{Output: big}, nil
	})
	spec := `{"experiment":"fig8","scale":"quick"}`
	_, doc := postJob(t, ts, spec)
	first := pollDone(t, ts, doc.ID)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.Header.Get("X-Cache") != "hit" || len(body) < 32<<10 {
		t.Fatalf("resubmit X-Cache %q, %d bytes; want a hit of at least 32 KB", resp.Header.Get("X-Cache"), len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("replay Content-Length %d, Transfer-Encoding %v; want %d, none", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if !bytes.Equal(body, first) {
		t.Error("replayed bytes differ from the stored document")
	}
}

func TestSubmitValidation(t *testing.T) {
	dir := t.TempDir()
	ts, svc := newTestServer(t, Config{DataDir: dir}, stubExec(nil, nil))
	bad := []string{
		``,                                 // empty body
		`{`,                                // malformed JSON
		`{"experiment":"fig99"}`,           // unknown experiment
		`{"kind":"bogus"}`,                 // unknown kind
		`{"experiment":"fig8","zzz":1}`,    // unknown field
		`{"run":"lock","protocol":"MESI"}`, // unknown protocol
		`{"run":"lock","procs":999}`,       // out of range
		// No acquire for any processor: once answered "done" with a NaN
		// latency, and stored.
		`{"run":"lock","procs":32,"iterations":5}`,
	}
	for _, spec := range bad {
		resp, _ := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: HTTP %d, want 400", spec, resp.StatusCode)
		}
	}
	if c := svc.Scheduler().Counters(); c.Submitted != 0 || c.Queued != 0 || c.Running != 0 {
		t.Errorf("rejected specs reached the scheduler: %+v", c)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("store directory holds %d entries (%v) after rejections only", len(entries), err)
	}
}

func TestUnknownJob404(t *testing.T) {
	ts, _ := newTestServer(t, Config{}, stubExec(nil, nil))
	for _, url := range []string{
		ts.URL + "/v1/jobs/deadbeef",
		ts.URL + "/v1/jobs/deadbeef/events",
	} {
		resp, _ := getBody(t, url)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404", url, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/deadbeef", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestQueueFull429(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, svc := newTestServer(t, Config{Jobs: 1, QueueDepth: 1}, stubExec(nil, block))

	if resp, _ := postJob(t, ts, `{"experiment":"fig8"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit HTTP %d", resp.StatusCode)
	}
	waitRunning(t, svc.Scheduler(), 1)
	if resp, _ := postJob(t, ts, `{"experiment":"fig11"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit HTTP %d", resp.StatusCode)
	}
	resp, _ := postJob(t, ts, `{"experiment":"fig14"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
}

func TestCancelEndpoint(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, svc := newTestServer(t, Config{Jobs: 1}, stubExec(nil, block))

	_, doc := postJob(t, ts, `{"experiment":"fig8"}`)
	waitRunning(t, svc.Scheduler(), 1)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+doc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel HTTP %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := getBody(t, ts.URL+"/v1/jobs/"+doc.ID)
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cancelling a finished job conflicts.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job HTTP %d, want 409", resp2.StatusCode)
	}
}

// TestEventsStream drives the SSE endpoint: initial status, progress
// snapshots forwarded from the runner hook, and a terminal status event
// once the job completes.
func TestEventsStream(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		progress(runner.Snapshot{JobsDone: 1, JobsTotal: 2, SimCycles: 1000, Label: "half"})
		<-release
		progress(runner.Snapshot{JobsDone: 2, JobsTotal: 2, SimCycles: 2000, Label: "full"})
		return &JobResult{Output: "done"}, nil
	}
	ts, svc := newTestServer(t, Config{Jobs: 1}, exec)
	_, doc := postJob(t, ts, `{"experiment":"fig8"}`)
	waitRunning(t, svc.Scheduler(), 1)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	close(release)

	var events []string
	var lastData string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	terminal := false
	for !terminal && scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events = append(events, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "data: "):
			lastData = strings.TrimPrefix(line, "data: ")
			var st JobStatus
			if json.Unmarshal([]byte(lastData), &st) == nil && isTerminal(st.Status) {
				terminal = true
			}
		}
	}
	if !terminal {
		t.Fatalf("stream ended without a terminal status; events: %v", events)
	}
	if events[0] != "status" {
		t.Errorf("first event = %q, want status", events[0])
	}
	var sawProgress bool
	for _, e := range events {
		if e == "progress" {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Errorf("no progress events in stream: %v", events)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone || final.Result == nil {
		t.Errorf("terminal event = %s (result %v), want done with result", final.Status, final.Result != nil)
	}

	// A stream opened after completion replays the terminal document.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(replay), `"status":"done"`) {
		t.Errorf("post-completion stream missing terminal status: %q", replay)
	}
}

// sseEvent is one event of a server-sent-event stream.
type sseEvent struct{ event, data string }

// readSSE parses a stream's events onto a channel, closed when the
// stream ends.
func readSSE(r io.Reader) <-chan sseEvent {
	ch := make(chan sseEvent)
	go func() {
		defer close(ch)
		scanner := bufio.NewScanner(r)
		scanner.Buffer(make([]byte, 1<<20), 1<<20)
		var event string
		for scanner.Scan() {
			line := scanner.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ch <- sseEvent{event, strings.TrimPrefix(line, "data: ")}
			}
		}
	}()
	return ch
}

// TestEventsLateSubscriberSeesProgress: a stream opened after the job
// published progress shows that progress at once, before the job's
// next step.
func TestEventsLateSubscriberSeesProgress(t *testing.T) {
	published, release := make(chan struct{}), make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		progress(runner.Snapshot{JobsDone: 1, JobsTotal: 2, SimCycles: 1000, Label: "half"})
		close(published)
		<-release
		progress(runner.Snapshot{JobsDone: 2, JobsTotal: 2, SimCycles: 2000, Label: "full"})
		return &JobResult{Output: "done"}, nil
	}
	ts, _ := newTestServer(t, Config{Jobs: 1}, exec)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // before the scheduler's Close, which waits for the job
	_, doc := postJob(t, ts, `{"experiment":"fig8"}`)
	<-published

	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(resp.Body)
	timeout := time.After(5 * time.Second)
	for seen := false; !seen; {
		select {
		case e, ok := <-events:
			if !ok {
				t.Fatal("stream ended before any progress")
			}
			if e.event != "progress" {
				continue
			}
			var p ProgressEvent
			if err := json.Unmarshal([]byte(e.data), &p); err != nil {
				t.Fatal(err)
			}
			if p.JobsDone != 1 || p.Label != "half" {
				t.Fatalf("first progress = %+v, want the published half", p)
			}
			seen = true
		case <-timeout:
			t.Fatal("no progress event while the job waits on its next step")
		}
	}
	unblock()
	var last sseEvent
	for e := range events {
		last = e
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(last.data), &final); err != nil || last.event != "status" || final.Status != StatusDone {
		t.Fatalf("stream ended with %s %q, want the done document", last.event, last.data)
	}
}

// TestEventsSlowSubscriberNeverBlocksJob: a subscriber that reads
// nothing while the job publishes 100 snapshots holds the job up not at
// all, then reads strictly increasing progress and the terminal
// document.
func TestEventsSlowSubscriberNeverBlocksJob(t *testing.T) {
	subscribed := make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		<-subscribed
		for i := 1; i <= 100; i++ {
			progress(runner.Snapshot{JobsDone: i, JobsTotal: 100, SimCycles: uint64(i) * 1000})
		}
		return &JobResult{Output: "done"}, nil
	}
	ts, _ := newTestServer(t, Config{Jobs: 1}, exec)
	_, doc := postJob(t, ts, `{"experiment":"fig8"}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		close(subscribed)
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(subscribed)
	final := pollDone(t, ts, doc.ID) // the subscriber has read nothing yet

	prev := 0
	var last sseEvent
	for e := range readSSE(resp.Body) {
		if e.event == "progress" {
			var p ProgressEvent
			if err := json.Unmarshal([]byte(e.data), &p); err != nil {
				t.Fatal(err)
			}
			if p.JobsDone <= prev {
				t.Fatalf("jobs_done %d after %d: progress must strictly increase", p.JobsDone, prev)
			}
			prev = p.JobsDone
		}
		last = e
	}
	if last.event != "status" || last.data != string(final) {
		t.Fatalf("stream ended with %s %q, want the terminal document %s", last.event, last.data, final)
	}
}

func TestExperimentsListing(t *testing.T) {
	ts, _ := newTestServer(t, Config{}, stubExec(nil, nil))
	resp, body := getBody(t, ts.URL+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var doc ExperimentList
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Experiments) < 15 || len(doc.Runs) != 3 {
		t.Fatalf("listing has %d experiments / %d runs", len(doc.Experiments), len(doc.Runs))
	}
	byName := map[string]ExperimentInfo{}
	for _, e := range doc.Experiments {
		byName[e.Name] = e
	}
	if e := byName["fig8"]; len(e.Formats) != 2 {
		t.Errorf("fig8 formats = %v, want table+csv", e.Formats)
	}
	if e := byName["ablations"]; len(e.Formats) != 1 {
		t.Errorf("ablations formats = %v, want table only", e.Formats)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	ts, svc := newTestServer(t, Config{}, stubExec(nil, nil))

	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz HTTP %d", resp.StatusCode)
	}
	var health map[string]string
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["version"] == "" || health["go"] == "" {
		t.Errorf("healthz = %v, want status/version/go populated", health)
	}

	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz HTTP %d while ready", resp.StatusCode)
	}
	svc.to(StateDraining)
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz HTTP %d while draining, want 503", resp.StatusCode)
	}
	svc.to(StateReady)

	// Run one job, then check the counters surface.
	_, doc := postJob(t, ts, `{"experiment":"fig8"}`)
	pollDone(t, ts, doc.ID)
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"coherenced_jobs_submitted_total 1",
		"coherenced_jobs_completed_total 1",
		"coherenced_result_cache_entries 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRealExecuteQuickRun exercises the production executor end to end
// with a cheap single-run spec: output text, metrics report, and the
// deterministic byte-identity of two executions.
func TestRealExecuteQuickRun(t *testing.T) {
	spec := canonical(t, JobSpec{Run: "lock", Algo: "mcs", Protocol: "CU", Procs: 4, Iterations: 200})
	run := func() []byte {
		res, err := execute(context.Background(), spec, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("two executions of the same run spec differ")
	}
	var res JobResult
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "lock") || res.Metrics == nil || len(res.Metrics.Runs) != 1 {
		t.Errorf("run result = %q metrics %v", res.Output, res.Metrics)
	}
	// A spec that skipped Canonicalize is refused, not simulated.
	for _, raw := range []JobSpec{
		{Kind: "run", Run: "nope", Protocol: "WI", Procs: 4},
		{Kind: "run", Run: "lock", Protocol: "WI", Procs: 4},
		{Kind: "run", Run: "lock", Algo: "ticket", Protocol: "WI", Procs: 4},
		{Kind: "run", Run: "lock", Algo: "tk", Protocol: "wi", Procs: 4},
	} {
		if _, err := execute(context.Background(), raw, 1, nil); err == nil {
			t.Errorf("non-canonical spec %+v executed", raw)
		}
	}
}

// TestBatchExecutorSharesPoints: figures 9 and 10 ask for the P=32
// points of figure 8 — the lock-traffic points, which are all of figure
// 9 — and so does a kind=run job of the same size, so on one memo
// whichever comes first simulates them and the rest simulate nothing
// new, and a batch serves the bytes fresh executors do.
func TestBatchExecutorSharesPoints(t *testing.T) {
	ctx := context.Background()
	mcs := JobSpec{Run: "lock", Algo: "mcs", Protocol: "CU", Iterations: experiments.Quick().LockIterations}
	const points, hits = 27, 19 // figure 8's distinct points; requests the later jobs make
	memo, batch := experiments.NewPointMemo(experiments.PointStore(nil)), BatchExecutor()
	for _, job := range []JobSpec{{Experiment: "fig8"}, {Experiment: "fig9"}, {Experiment: "fig10"}, mcs} {
		spec, name := canonical(t, job), job.Experiment+job.Run
		var docs [3][]byte
		for i, run := range []ExecFunc{execute, batch, executor(memo, nil)} {
			res, err := run(ctx, spec, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			docs[i], _ = json.Marshal(res)
		}
		if !bytes.Equal(docs[0], docs[1]) || !bytes.Equal(docs[0], docs[2]) {
			t.Errorf("%s: a shared memo changed the result", name)
		}
		if n := memo.Stats().Entries; n != points {
			t.Errorf("%d distinct points simulated after %s, want the %d of fig8", n, name, points)
		}
	}
	if ms := memo.Stats(); ms.Hits != hits || ms.Builds != points || ms.Saved == 0 {
		t.Errorf("memo hits %d builds %d served cycles %d, want %d, %d, > 0", ms.Hits, ms.Builds, ms.Saved, hits, points)
	}
}

// TestRunDocumentGolden pins a whole kind=run job document as the daemon
// serves and stores it: id, canonical spec, summary, metrics report and
// breakdown report.
func TestRunDocumentGolden(t *testing.T) {
	ts, _ := newTestServer(t, Config{}, nil)
	_, doc := postJob(t, ts, `{"run":"lock","algo":"mcs","protocol":"cu","procs":8,"iterations":500,"breakdown":true}`)
	sum := sha256.Sum256(pollDone(t, ts, doc.ID))
	if got := hex.EncodeToString(sum[:]); got != goldenRunLockDocHash {
		t.Errorf("run/lock document sha256 = %s, want %s", got, goldenRunLockDocHash)
	}
}

// TestRealExecuteExperimentCancellation proves a real sweep stops early
// when its context is cancelled.
func TestRealExecuteExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := execute(ctx, canonical(t, JobSpec{Experiment: "fig8"}), 2, nil); err == nil {
		t.Error("cancelled executor returned a result")
	}
}

// TestBreakdownAndHotBlocksEndpoints drives /v1/jobs/{id}/breakdown and
// /hotblocks over a stub executor: fig8 serves a hand-built breakdown of
// two runs that share a block (and a run without one), fig9 serves no
// breakdown, fig10 fails and fig11 runs until the test releases it.
func TestBreakdownAndHotBlocksEndpoints(t *testing.T) {
	report := &trace.BreakdownReport{Runs: []trace.BreakdownRun{
		{Label: "a", Breakdown: &trace.BreakdownSnapshot{HotBlocks: []trace.HotBlock{
			{Block: 1, Txns: 2, Cycles: 10}, {Block: 2, Txns: 1, Cycles: 30}, {Block: 3, Txns: 5, Cycles: 5},
		}}},
		{Label: "b", Breakdown: &trace.BreakdownSnapshot{HotBlocks: []trace.HotBlock{
			{Block: 4, Txns: 1, Cycles: 35}, {Block: 1, Txns: 3, Cycles: 25},
		}}},
		{Label: "c"},
	}}
	release := make(chan struct{})
	ts, _ := newTestServer(t, Config{Jobs: 2}, func(ctx context.Context, spec JobSpec, _ int, _ func(runner.Snapshot)) (*JobResult, error) {
		switch spec.Experiment {
		case "fig8":
			return &JobResult{Output: "with breakdown", Breakdown: report}, nil
		case "fig10":
			return nil, errors.New("stub failure")
		case "fig11":
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &JobResult{Output: "without breakdown"}, nil
	})
	code := func(id, view string) int {
		t.Helper()
		resp, _ := getBody(t, ts.URL+"/v1/jobs/"+id+view)
		return resp.StatusCode
	}
	submit := func(spec string) string {
		t.Helper()
		_, doc := postJob(t, ts, spec)
		return doc.ID
	}
	await := func(id, status string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			_, body := getBody(t, ts.URL+"/v1/jobs/"+id)
			var doc JobStatus
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Status == status {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s is %s, never %s", id, doc.Status, status)
			}
		}
	}

	for _, view := range []string{"/breakdown", "/hotblocks"} {
		if c := code("no-such-job", view); c != http.StatusNotFound {
			t.Errorf("%s of an unknown job: HTTP %d, want 404", view, c)
		}
	}

	running := submit(`{"experiment":"fig11","scale":"quick"}`)
	await(running, StatusRunning)
	for _, view := range []string{"/breakdown", "/hotblocks"} {
		if c := code(running, view); c != http.StatusConflict {
			t.Errorf("%s of a running job: HTTP %d, want 409", view, c)
		}
	}
	close(release)
	pollDone(t, ts, running)

	failed := submit(`{"experiment":"fig10","scale":"quick"}`)
	await(failed, StatusFailed)
	plain := submit(`{"experiment":"fig9","scale":"quick"}`)
	pollDone(t, ts, plain)
	for _, view := range []string{"/breakdown", "/hotblocks"} {
		if c := code(failed, view); c != http.StatusConflict {
			t.Errorf("%s of a failed job: HTTP %d, want 409", view, c)
		}
		if c := code(plain, view); c != http.StatusNotFound {
			t.Errorf("%s of a job without a breakdown: HTTP %d, want 404", view, c)
		}
	}

	id := submit(`{"experiment":"fig8","scale":"quick","breakdown":true}`)
	var doc JobStatus
	if err := json.Unmarshal(pollDone(t, ts, id), &doc); err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Breakdown json.RawMessage `json:"breakdown"`
	}
	if err := json.Unmarshal(doc.Result, &stored); err != nil {
		t.Fatal(err)
	}
	if resp, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/breakdown"); resp.StatusCode != http.StatusOK || !bytes.Equal(body, stored.Breakdown) {
		t.Errorf("/breakdown: HTTP %d, %s; want 200 and the stored document's breakdown %s", resp.StatusCode, body, stored.Breakdown)
	}

	for _, n := range []string{"0", "-1", "abc"} {
		if c := code(id, "/hotblocks?n="+n); c != http.StatusBadRequest {
			t.Errorf("/hotblocks?n=%s: HTTP %d, want 400", n, c)
		}
	}
	// Block 1 sums its two runs to 35 cycles and ties block 4, which it
	// precedes by number.
	ranked := []trace.HotBlock{{Block: 1, Txns: 5, Cycles: 35}, {Block: 4, Txns: 1, Cycles: 35}, {Block: 2, Txns: 1, Cycles: 30}, {Block: 3, Txns: 5, Cycles: 5}}
	for query, want := range map[string][]trace.HotBlock{"": ranked, "?n=3": ranked[:3], "?n=1": ranked[:1]} {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/hotblocks"+query)
		var got HotBlockList
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil {
			t.Fatalf("/hotblocks%s: HTTP %d, %s", query, resp.StatusCode, body)
		}
		if got.ID != id || !reflect.DeepEqual(got.Blocks, want) {
			t.Errorf("/hotblocks%s = %+v, want id %s and %+v", query, got, id, want)
		}
	}
}
