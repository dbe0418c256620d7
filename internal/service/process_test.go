package service

import (
	"bytes"
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
	if testing.Short() {
		t.Skip("builds and runs coherenced in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "coherenced")
	if out, err := exec.Command("go", "build", "-o", bin, "coherencesim/cmd/coherenced").CombinedOutput(); err != nil {
		t.Fatalf("go build coherenced: %v\n%s", err, out)
	}
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
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec("fig8")))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(got, want["fig8"]) {
			t.Errorf("re-POST after the restart: X-Cache %q, body equal %v; want the stored document", resp.Header.Get("X-Cache"), bytes.Equal(got, want["fig8"]))
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
