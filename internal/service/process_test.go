package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles cmd/coherenced into the test's temp directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs coherenced in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "coherenced")
	if out, err := exec.Command("go", "build", "-o", bin, "coherencesim/cmd/coherenced").CombinedOutput(); err != nil {
		t.Fatalf("go build coherenced: %v\n%s", err, out)
	}
	return bin
}

// startProcess runs one coherenced process until the test ends.
func startProcess(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // already gone when the test stopped it
		_ = cmd.Wait()
	})
	return cmd
}

// serve starts a daemon on a free loopback port and waits until it is
// ready. The handle is an httptest.Server only in name: it carries the
// URL the package's HTTP helpers want. stop drains it with SIGTERM.
func serve(t *testing.T, bin string, args ...string) (ts *httptest.Server, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := startProcess(t, bin, append([]string{"-addr", addr}, args...)...)
	ts = &httptest.Server{URL: "http://" + addr}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(ts.URL + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon on %s never became ready", addr)
		}
	}
	return ts, func() {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Errorf("daemon did not drain cleanly on SIGTERM: %v", err)
		}
	}
}

// postRaw submits spec and returns the X-Cache header and the body as
// served, undecoded: a replayed document is compared byte for byte.
func postRaw(t *testing.T, ts *httptest.Server, spec string) (xcache string, body []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(resp.Body)
	return resp.Header.Get("X-Cache"), body
}

// join starts worker processes of the given widths and waits until the
// coordinator counts them all live.
func join(t *testing.T, bin string, ts *httptest.Server, parallel ...int) []*exec.Cmd {
	t.Helper()
	workers := make([]*exec.Cmd, len(parallel))
	for i, p := range parallel {
		workers[i] = startProcess(t, bin, "-role", "worker", "-join", ts.URL,
			"-worker-id", "w"+strconv.Itoa(i), "-parallel", strconv.Itoa(p))
	}
	for deadline := time.Now().Add(10 * time.Second); metricRow(t, ts, "coherenced_fleet_workers_live") != uint64(len(parallel)); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d fleet workers never registered", len(parallel))
		}
	}
	return workers
}

// TestFleetProcesses drives real coherenced processes — a coordinator and
// its workers over loopback HTTP — and requires every document they
// assemble to byte-equal the one a lone daemon computes.
func TestFleetProcesses(t *testing.T) {
	bin := buildDaemon(t)
	spec := func(name string) string { return `{"experiment":"` + name + `","scale":"quick"}` }
	run := func(t *testing.T, ts *httptest.Server, name string) []byte {
		t.Helper()
		_, doc := postJob(t, ts, spec(name))
		return pollDone(t, ts, doc.ID)
	}

	lone, stop := serve(t, bin)
	want := make(map[string][]byte)
	for _, name := range []string{"fig8", "fig9", "fig10", "fig11"} {
		want[name] = run(t, lone, name)
	}
	stop()

	// A worker killed mid-sweep (SIGKILL: no deregistration, the
	// heartbeat timeout must notice) and a coordinator restarted on the
	// same -data-dir both leave the documents as they were.
	t.Run("worker death and coordinator restart", func(t *testing.T) {
		dir := t.TempDir()
		ts, stop := serve(t, bin, "-data-dir", dir, "-heartbeat-timeout", "1s")
		workers := join(t, bin, ts, 1, 1)
		if got := run(t, ts, "fig8"); !bytes.Equal(got, want["fig8"]) {
			t.Error("two-worker fig8 differs from the lone daemon's")
		}
		if metricRow(t, ts, "coherenced_fleet_shards_completed_total") == 0 {
			t.Error("the fleet completed no shard: fig8 did not use it")
		}
		_, doc := postJob(t, ts, spec("fig11"))
		time.Sleep(50 * time.Millisecond)
		if err := workers[0].Process.Kill(); err != nil {
			t.Fatal(err)
		}
		if got := pollDone(t, ts, doc.ID); !bytes.Equal(got, want["fig11"]) {
			t.Error("fig11 across a worker's death differs from the lone daemon's")
		}
		stop()

		ts, stop = serve(t, bin, "-data-dir", dir)
		if xcache, got := postRaw(t, ts, spec("fig8")); xcache != "hit" || !bytes.Equal(got, want["fig8"]) {
			t.Errorf("re-POST after the restart: X-Cache %q, body equal %v; want the stored document", xcache, bytes.Equal(got, want["fig8"]))
		}
		if n := metricRow(t, ts, "coherenced_store_hits_total"); n != 1 {
			t.Errorf("store hits after the restart = %d, want 1", n)
		}
		stop()
	})

	// A one-slot worker beside a four-slot one on a cacheless
	// coordinator: nothing is leased ahead, every lease is completed by
	// whoever took it, nothing arrives twice — and figures 9 and 10,
	// projections of figure 8's 32-processor runs, lease nothing at all.
	t.Run("heterogeneous workers lease each point once", func(t *testing.T) {
		ts, stop := serve(t, bin)
		join(t, bin, ts, 1, 4)
		dispatched := uint64(0)
		for _, name := range []string{"fig11", "fig8", "fig9", "fig10"} {
			if got := run(t, ts, name); !bytes.Equal(got, want[name]) {
				t.Errorf("%s through two workers differs from the lone daemon's", name)
			}
			d := metricRow(t, ts, "coherenced_fleet_shards_dispatched_total")
			if fresh := name == "fig11" || name == "fig8"; fresh != (d > dispatched) {
				t.Errorf("%s took the lease count from %d to %d", name, dispatched, d)
			}
			dispatched = d
		}
		if c := metricRow(t, ts, "coherenced_fleet_shards_completed_total"); c != dispatched {
			t.Errorf("%d leases, %d completions", dispatched, c)
		}
		if n := metricRow(t, ts, "coherenced_fleet_shards_duplicate_total"); n != 0 {
			t.Errorf("%d completions arrived twice", n)
		}
		if n := metricRow(t, ts, "coherenced_fleet_points_coalesced_total"); n != 18 {
			t.Errorf("%d points coalesced, want the 18 of fig9 and fig10", n)
		}
		stop()
	})
}

// TestDaemonProcess drives one real coherenced end to end: a quick
// figure computed once and replayed byte-identically from the cache, the
// breakdown and hot-block views of a job that collected them (404 for one
// that did not), the counters on /metrics, a live config reload, and a
// SIGTERM drain that exits 0. (That its reports equal the CLI's is
// cmd/coherencesim's TestCLIMatchesExecute.)
func TestDaemonProcess(t *testing.T) {
	ts, stop := serve(t, buildDaemon(t), "-jobs", "2")
	if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"coherenced"`)) {
		t.Fatalf("/healthz: HTTP %d %s", resp.StatusCode, body)
	}

	const spec = `{"experiment":"fig8","scale":"quick"}`
	resp, doc := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first submit: HTTP %d, X-Cache %q; want 202, miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	want := pollDone(t, ts, doc.ID)
	if xcache, got := postRaw(t, ts, spec); xcache != "hit" || !bytes.Equal(got, want) {
		t.Errorf("re-POST: X-Cache %q, body equal %v; want the finished document from the cache", xcache, bytes.Equal(got, want))
	}
	if n := metricRow(t, ts, "coherenced_jobs_cache_hits_total"); n != 1 {
		t.Errorf("coherenced_jobs_cache_hits_total = %d, want 1", n)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+doc.ID+"/breakdown"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("breakdown of a job that collected none: HTTP %d, want 404", resp.StatusCode)
	}

	_, bdoc := postJob(t, ts, `{"experiment":"fig8","scale":"quick","breakdown":true}`)
	pollDone(t, ts, bdoc.ID)
	for path, field := range map[string]string{"/breakdown": "runs", "/hotblocks?n=5": "blocks"} {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+bdoc.ID+path)
		var view map[string]json.RawMessage
		if err := json.Unmarshal(body, &view); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v: %s", path, resp.StatusCode, err, body)
		}
		var rows []json.RawMessage
		if err := json.Unmarshal(view[field], &rows); err != nil || len(rows) == 0 {
			t.Errorf("%s: no %q rows in %s", path, field, body)
		}
	}
	if n := metricRow(t, ts, "coherenced_txn_latency_cycles_count"); n == 0 {
		t.Error("coherenced_txn_latency_cycles_count is 0 after a breakdown job")
	}

	reload, err := http.Post(ts.URL+"/v1/admin/reload", "application/json", strings.NewReader(`{"tenant_quota":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var st ReloadStatus
	if err := json.NewDecoder(reload.Body).Decode(&st); err != nil || st.TenantQuota != 4 {
		t.Errorf("reload answered %+v (%v), want tenant_quota 4", st, err)
	}
	reload.Body.Close()
	if n := metricRow(t, ts, "coherenced_config_reloads_total"); n != 1 {
		t.Errorf("coherenced_config_reloads_total = %d, want 1", n)
	}
	stop()
}
