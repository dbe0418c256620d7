package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestAdminReloadDelta: POST /v1/admin/reload applies a partial config
// without restarting — a tenant over quota is admitted immediately
// after the quota is raised.
func TestAdminReloadDelta(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, svc, _ := startService(t, Config{TenantQuota: 1}, stubExec(nil, block))

	if resp := postJobTenant(t, ts, `{"experiment":"fig8","scale":"quick"}`, "alice"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit HTTP %d", resp.StatusCode)
	}
	if resp := postJobTenant(t, ts, `{"experiment":"fig11","scale":"quick"}`, "alice"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit HTTP %d, want 429", resp.StatusCode)
	}

	body := `{"tenant_quota":2}`
	resp, err := http.Post(ts.URL+"/v1/admin/reload", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st ReloadStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload HTTP %d", resp.StatusCode)
	}
	if st.TenantQuota != 2 || st.Source != "request" {
		t.Fatalf("reload status = %+v", st)
	}
	if quota, _ := svc.Scheduler().Quotas(); quota != 2 {
		t.Errorf("scheduler quota = %d after reload, want 2", quota)
	}

	// The raised quota takes effect for the very next submission.
	if resp := postJobTenant(t, ts, `{"experiment":"fig11","scale":"quick"}`, "alice"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-reload submit HTTP %d, want 202", resp.StatusCode)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	if !bytes.Contains(metrics, []byte("coherenced_config_reloads_total 1")) {
		t.Errorf("metrics missing reload counter:\n%s", metrics)
	}

	// Unknown fields — the removed fleet knobs included — are a client
	// error, not a silent partial apply.
	for _, body := range []string{`{"bogus":1}`, `{"tenant_quota":9,"fleet_batch":4}`, `{"tenant_quota":9,"steal_threshold":-1}`} {
		resp2, err := http.Post(ts.URL+"/v1/admin/reload", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest {
			t.Errorf("reload %s HTTP %d, want 400", body, resp2.StatusCode)
		}
		if quota, _ := svc.Scheduler().Quotas(); quota != 2 {
			t.Errorf("quota changed by rejected reload %s: %d", body, quota)
		}
	}
}

// TestReloadFromConfigFile covers the SIGHUP path: the -config file is
// applied at startup and re-read on Reload(nil); a malformed rewrite is
// rejected without disturbing the running configuration.
func TestReloadFromConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coherenced.json")
	if err := os.WriteFile(path, []byte(`{"tenant_quota":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int32
	_, svc, _ := startService(t, Config{TenantQuota: 1, ConfigPath: path}, stubExec(&execs, nil))

	if quota, _ := svc.Scheduler().Quotas(); quota != 3 {
		t.Fatalf("startup quota = %d, want 3 from config file", quota)
	}
	if n := svc.Reloads(); n != 1 {
		t.Fatalf("startup reloads = %d, want 1", n)
	}

	if err := os.WriteFile(path, []byte(`{"tenant_quota":5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Reload(nil) // what the SIGHUP handler calls
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != path || st.TenantQuota != 5 {
		t.Fatalf("reload status = %+v", st)
	}

	// A bad file fails the reload and leaves the last good config live.
	if err := os.WriteFile(path, []byte(`{"tenant_quota":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Reload(nil); err == nil {
		t.Fatal("reload of truncated config succeeded")
	}
	if quota, _ := svc.Scheduler().Quotas(); quota != 5 {
		t.Errorf("quota after failed reload = %d, want 5", quota)
	}
	if n := svc.Reloads(); n != 2 {
		t.Errorf("reloads = %d, want 2 (failed reload must not count)", n)
	}
}

// TestStartupRejectsBadConfigFile: a daemon that cannot parse its
// -config file must refuse to start rather than serve with defaults —
// and a file still naming a removed fleet knob is such a file: a knob
// that no longer exists must fail loudly, not be ignored.
func TestStartupRejectsBadConfigFile(t *testing.T) {
	for _, body := range []string{`{"no_such_field":true}`, `{"fleet_batch":32}`, `{"tenant_quota":2,"steal_threshold":-1}`} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := newService(Config{ConfigPath: path}, stubExec(nil, nil)); err == nil {
			t.Errorf("newService accepted the config file %s", body)
		} else if !strings.Contains(err.Error(), "bad.json") || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("config %s: error %v does not name the config file and the unknown field", body, err)
		}
	}
}

// FuzzReloadBody: whatever bytes arrive as a configuration delta —
// POSTed to /v1/admin/reload or found in the -config file on SIGHUP —
// are either refused (4xx, an error) with the live quotas and the reload
// count untouched, or applied as exactly the keys they name: a key the
// body does not name keeps its value, and both entry points agree.
func FuzzReloadBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "coherenced.json")
		if err := os.WriteFile(path, []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
		quota0, quotas0 := 7, map[string]int{"alice": 2}
		svc, err := newService(Config{TenantQuota: quota0, TenantQuotas: quotas0, ConfigPath: path}, stubExec(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			svc.Scheduler().Close()
			svc.Coordinator().Close()
		})
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}

		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/reload", bytes.NewReader(body)))
		quota, quotas := svc.Scheduler().Quotas()
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			if quota != quota0 || !reflect.DeepEqual(quotas, quotas0) || svc.Reloads() != 1 {
				t.Fatalf("HTTP %d changed the live config: quota %d, overrides %v, %d reloads", rec.Code, quota, quotas, svc.Reloads())
			}
		case rec.Code == http.StatusOK:
			var named map[string]json.RawMessage
			if err := json.Unmarshal(body, &named); err != nil {
				t.Fatalf("HTTP 200 for a body that is not one JSON object: %v", err)
			}
			// Field names match case-insensitively, so one field can be
			// named twice; a null names nothing.
			var quotaVals, quotasVals []json.RawMessage
			for key, raw := range named {
				switch {
				case string(raw) == "null":
				case strings.EqualFold(key, "tenant_quota"):
					quotaVals = append(quotaVals, raw)
				case strings.EqualFold(key, "tenant_quotas"):
					quotasVals = append(quotasVals, raw)
				default:
					t.Fatalf("HTTP 200 for a body naming unknown key %q", key)
				}
			}
			wantQuota, wantQuotas := quota0, quotas0
			if len(quotaVals) == 1 {
				if err := json.Unmarshal(quotaVals[0], &wantQuota); err != nil {
					t.Fatalf("HTTP 200 for tenant_quota %s: %v", quotaVals[0], err)
				}
			}
			if len(quotasVals) == 1 {
				wantQuotas = map[string]int{}
				if err := json.Unmarshal(quotasVals[0], &wantQuotas); err != nil {
					t.Fatalf("HTTP 200 for tenant_quotas %s: %v", quotasVals[0], err)
				}
			}
			if len(quotaVals) <= 1 && quota != wantQuota {
				t.Fatalf("live tenant_quota %d, want %d", quota, wantQuota)
			}
			if len(quotasVals) <= 1 && !reflect.DeepEqual(quotas, wantQuotas) {
				t.Fatalf("live tenant_quotas %v, want %v", quotas, wantQuotas)
			}
			var st ReloadStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.TenantQuota != quota || len(st.TenantQuotas) != len(quotas) {
				t.Fatalf("answered %s (%v) with quota %d, overrides %v live", rec.Body, err, quota, quotas)
			}
			if svc.Reloads() != 2 {
				t.Fatalf("%d reloads counted after one accepted delta", svc.Reloads())
			}
		default:
			t.Fatalf("HTTP %d", rec.Code)
		}

		// The same bytes as the -config file, from the same start.
		svc.Scheduler().SetQuotas(quota0, quotas0)
		_, err = svc.Reload(nil)
		if (err == nil) != (rec.Code == http.StatusOK) {
			t.Fatalf("the request path answered HTTP %d, the file path %v", rec.Code, err)
		}
		if fq, fqs := svc.Scheduler().Quotas(); fq != quota || !reflect.DeepEqual(fqs, quotas) {
			t.Fatalf("file path left quota %d, overrides %v; request path %d, %v", fq, fqs, quota, quotas)
		}
	})
}
