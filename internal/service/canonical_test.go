package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// Golden content addresses. These must stay stable across releases:
// they key the content-addressed result cache, so an accidental change
// silently invalidates every cached result (and a deliberate schema
// change should be noticed here and called out).
const (
	goldenFig8QuickHash = "a5356a345b4cf677776d7251f5d836cf89a709d021ac01e21cc26f13ea6472cf"
	goldenRunLockHash   = "969f9581e352587b050a5a3cbac12fa6630a27c9af106c3205022402486be1f2"
	// goldenRunLockDocHash is the SHA-256 of the job document served for
	// the goldenRunLockHash spec with breakdown on: documents like it sit
	// in durable stores, labels included (TestRunDocumentGolden).
	goldenRunLockDocHash = "701c5077f0388b1d77431865ed1a07cefde17df5a89c0b81d45d25d51169d5eb"
)

func TestCanonicalHashGolden(t *testing.T) {
	c, err := Canonicalize(JobSpec{Kind: "experiment", Experiment: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	if h := Hash(c); h != goldenFig8QuickHash {
		t.Errorf("fig8 quick hash = %s, want %s", h, goldenFig8QuickHash)
	}
	c, err = Canonicalize(JobSpec{Kind: "run", Run: "lock", Algo: "mcs", Protocol: "cu", Procs: 8, Iterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	if h := Hash(c); h != goldenRunLockHash {
		t.Errorf("run/lock hash = %s, want %s", h, goldenRunLockHash)
	}
}

// TestHashStableAcrossFieldOrderings feeds the same spec through JSON
// documents with shuffled field orders and alias spellings; every
// variant must canonicalize to the same content address.
func TestHashStableAcrossFieldOrderings(t *testing.T) {
	variants := []string{
		`{"kind":"experiment","experiment":"fig8","scale":"quick","format":"table","metrics_interval":10000}`,
		`{"metrics_interval":10000,"format":"table","scale":"quick","experiment":"fig8","kind":"experiment"}`,
		`{"scale":"quick","kind":"experiment","experiment":"fig8"}`,
		`{"experiment":"fig8"}`,                     // kind inferred, defaults applied
		`{"kind":"EXPERIMENT","experiment":"FIG8"}`, // case-normalized
		`{"experiment":"fig8","timeout_sec":30}`,    // deadline excluded from the hash
		`{"experiment":"fig8","kind":"experiment","format":"table"}`,
	}
	for i, doc := range variants {
		var s JobSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		c, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if h := Hash(c); h != goldenFig8QuickHash {
			t.Errorf("variant %d: hash = %s, want %s", i, h, goldenFig8QuickHash)
		}
	}

	runVariants := []string{
		`{"kind":"run","run":"lock","algo":"mcs","protocol":"cu","procs":8,"iterations":500}`,
		`{"procs":8,"protocol":"CU","iterations":500,"algo":"MCS","run":"LOCK"}`,
		`{"run":"lock","algo":"mcs","protocol":"c","procs":8,"iterations":500,"timeout_sec":5}`,
	}
	for i, doc := range runVariants {
		var s JobSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatalf("run variant %d: %v", i, err)
		}
		c, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("run variant %d: %v", i, err)
		}
		if h := Hash(c); h != goldenRunLockHash {
			t.Errorf("run variant %d: hash = %s, want %s", i, h, goldenRunLockHash)
		}
	}
}

func TestCanonicalizeDefaultsAndClearing(t *testing.T) {
	// Experiment kind: run-only fields are cleared so they cannot split
	// the cache address space.
	c, err := Canonicalize(JobSpec{Experiment: "fig11", Protocol: "CU", Procs: 8, Algo: "mcs"})
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{Kind: "experiment", Experiment: "fig11", Scale: "quick", Format: "table", MetricsInterval: 10000}
	if c != want {
		t.Errorf("canonical = %+v, want %+v", c, want)
	}

	// Run kind: experiment-only fields cleared, defaults applied.
	c, err = Canonicalize(JobSpec{Run: "barrier", Scale: "paper"})
	if err != nil {
		t.Fatal(err)
	}
	want = JobSpec{Kind: "run", Run: "barrier", Algo: "db", Protocol: "WI", Procs: 32, Format: "table", MetricsInterval: 10000}
	if c != want {
		t.Errorf("canonical = %+v, want %+v", c, want)
	}

	// An experiment that feeds no collector: its report fields are
	// cleared, so asking for a breakdown names the same job.
	c, err = Canonicalize(JobSpec{Experiment: "ablations", Breakdown: true, MetricsInterval: 500})
	if err != nil {
		t.Fatal(err)
	}
	want = JobSpec{Kind: "experiment", Experiment: "ablations", Scale: "quick", Format: "table"}
	if plain, _ := Canonicalize(JobSpec{Experiment: "ablations"}); c != want || plain != want {
		t.Errorf("canonical = %+v and %+v, want %+v", c, plain, want)
	}
}

// TestWarmForkRefused: a job spec no longer selects the two-phase run,
// so warm_fork is an unknown field and the request is refused before it
// reaches the scheduler, while every document stored without it keeps
// its content address.
func TestWarmForkRefused(t *testing.T) {
	ts, svc := newTestServer(t, Config{}, stubExec(nil, nil))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"experiment":"fig8","warm_fork":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"warm_fork\"`) {
		t.Errorf("warm_fork spec: HTTP %d %s, want 400 naming the unknown field", resp.StatusCode, body)
	}
	if c := svc.Scheduler().Counters(); c.Submitted != 0 {
		t.Errorf("a refused spec reached the scheduler: %+v", c)
	}

	plain, err := Canonicalize(JobSpec{Experiment: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	if h := Hash(plain); h != goldenFig8QuickHash {
		t.Errorf("plain fig8 hash = %s, want golden %s", h, goldenFig8QuickHash)
	}
}

func TestCanonicalizeRejections(t *testing.T) {
	bad := []JobSpec{
		{},                                       // no kind derivable
		{Kind: "bogus"},                          // unknown kind
		{Kind: "experiment"},                     // no experiment name
		{Experiment: "fig99"},                    // unknown experiment
		{Experiment: "fig8", Scale: "huge"},      // unknown scale
		{Experiment: "fig8", Format: "xml"},      // unknown format
		{Experiment: "ablations", Format: "csv"}, // no CSV form
		{Run: "mutex"},                           // unknown run kind
		{Run: "lock", Algo: "spinlock"},          // unknown algorithm
		{Run: "lock", Protocol: "MESI"},          // unknown protocol
		{Run: "lock", Procs: 65},                 // out of range
		{Run: "lock", Procs: -1},                 // out of range
		{Run: "lock", Iterations: -5},            // negative iterations
		{Experiment: "fig8", TimeoutSec: -1},     // negative deadline
		{Run: "lock", Iterations: 31},            // no acquire per processor at the default 32
	}
	for i, s := range bad {
		if _, err := Canonicalize(s); err == nil {
			t.Errorf("spec %d (%+v) accepted, want error", i, s)
		}
	}
	_, err := Canonicalize(JobSpec{Run: "lock", Procs: 32, Iterations: 5})
	if want := "iterations 5 is fewer than one acquire per processor (procs 32)"; err == nil || err.Error() != want {
		t.Errorf("starved lock run: error %v, want %q", err, want)
	}
	// The bound is the lock loop's alone, and one acquire each is enough.
	for _, s := range []JobSpec{{Run: "lock", Procs: 4, Iterations: 4}, {Run: "barrier", Procs: 32, Iterations: 5}} {
		if _, err := Canonicalize(s); err != nil {
			t.Errorf("spec %+v rejected: %v", s, err)
		}
	}
}

// TestCanonicalizeSpellings: every spelling the -protocol, -lock,
// -barrier and -reduction flags or a JSON spec may use, in any case.
func TestCanonicalizeSpellings(t *testing.T) {
	for _, c := range []struct{ run, algo, protocol, wantAlgo, wantProtocol string }{
		{"lock", "", "", "tk", "WI"},
		{"lock", "Ticket", "wi", "tk", "WI"},
		{"lock", "TK", "i", "tk", "WI"},
		{"lock", "mcs", "I", "mcs", "WI"},
		{"lock", "uc", "PU", "ucmcs", "PU"},
		{"lock", "UCMCS", "pu", "ucmcs", "PU"},
		{"barrier", "", "u", "db", "PU"},
		{"barrier", "central", "U", "cb", "PU"},
		{"barrier", "Dissemination", "CU", "db", "CU"},
		{"barrier", "tree", "cu", "tb", "CU"},
		{"reduction", "", "c", "sr", "CU"},
		{"reduction", "sequential", "C", "sr", "CU"},
		{"reduction", "Parallel", " wi ", "pr", "WI"},
	} {
		got, err := Canonicalize(JobSpec{Run: c.run, Algo: c.algo, Protocol: c.protocol})
		if err != nil || got.Algo != c.wantAlgo || got.Protocol != c.wantProtocol {
			t.Errorf("%+v: canonical algo %q protocol %q, err %v", c, got.Algo, got.Protocol, err)
		}
	}
}

func TestCanonicalizeAllCatalogNamesAndCSV(t *testing.T) {
	// Every catalog experiment must canonicalize, and CSV must be
	// accepted exactly for the entries that declare a CSV form.
	for _, name := range []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "lockvariants", "redvariants", "extlocks", "contention", "apps", "ablations"} {
		if _, err := Canonicalize(JobSpec{Experiment: name}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Canonicalize(JobSpec{Experiment: "fig8", Format: "csv"}); err != nil {
		t.Errorf("fig8 csv rejected: %v", err)
	}
	if _, err := Canonicalize(JobSpec{Experiment: "apps", Format: "csv"}); err == nil {
		t.Error("apps csv accepted, but apps has no CSV form")
	}
}
