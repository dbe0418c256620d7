package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"

	"coherencesim/internal/buildinfo"
	"coherencesim/internal/experiments"
	"coherencesim/internal/fleet"
	"coherencesim/internal/trace"
)

// Reloader applies hot configuration deltas (Service implements it;
// the server exposes it as POST /v1/admin/reload).
type Reloader interface {
	Reload(delta []byte) (ReloadStatus, error)
	Reloads() uint64
}

// Server routes the versioned REST/SSE API onto the scheduler.
type Server struct {
	sched    *Scheduler
	life     *Lifecycle
	coord    *fleet.Coordinator
	reloader Reloader
	memo     *experiments.PointMemo
	mux      *http.ServeMux
}

// NewServer wires the API routes. A non-nil coordinator mounts the
// fleet's worker-facing endpoints (/v1/fleet/*) on the same listener;
// a non-nil reloader mounts POST /v1/admin/reload; memo is the point
// memo /metrics reports on.
func NewServer(sched *Scheduler, life *Lifecycle, coord *fleet.Coordinator, reloader Reloader, memo *experiments.PointMemo) *Server {
	s := &Server{sched: sched, life: life, coord: coord, reloader: reloader, memo: memo, mux: http.NewServeMux()}
	if coord != nil {
		coord.Mount(s.mux)
	}
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/breakdown", s.handleBreakdown)
	s.mux.HandleFunc("GET /v1/jobs/{id}/hotblocks", s.handleHotBlocks)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON marshals v as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeRaw(w, code, b)
}

// writeRaw writes pre-marshaled JSON verbatim — the cached-result path,
// where byte-identical replay is the point. The length is declared, so a
// stored document is not chunk-encoded.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/jobs: canonicalize, then admit, dedup, or
// serve from the content-addressed cache.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var raw JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	spec, err := Canonicalize(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	id, t, cached, adm, err := s.sched.Submit(spec, r.Header.Get("X-Tenant"))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfter()))
		writeError(w, http.StatusTooManyRequests, "job queue full, retry later")
		return
	case errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfter()))
		writeError(w, http.StatusTooManyRequests, "tenant admission quota exceeded, retry later")
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	switch adm {
	case CacheHit:
		w.Header().Set("X-Cache", "hit")
		writeRaw(w, http.StatusOK, cached)
	case Deduped:
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("X-Deduplicated", "true")
		if body := t.terminalBody(); body != nil {
			writeRaw(w, http.StatusOK, body)
			return
		}
		writeJSON(w, http.StatusAccepted, t.Status())
	default:
		w.Header().Set("X-Cache", "miss")
		writeJSON(w, http.StatusAccepted, t.Status())
	}
}

// handleGet is GET /v1/jobs/{id}: live jobs report their state; terminal
// jobs replay the stored document byte-identically.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch t, body, ok := s.sched.Find(id); {
	case body != nil:
		writeRaw(w, http.StatusOK, body)
	case ok:
		writeJSON(w, http.StatusOK, t.Status())
	default:
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
}

// doneResult loads the stored terminal document for id and returns its
// result payload. On any failure it writes the API error itself and
// returns ok=false: 404 for an unknown job, 409 while the job is still
// queued or running or when it finished without a result.
func (s *Server) doneResult(w http.ResponseWriter, id string) (json.RawMessage, bool) {
	_, body, ok := s.sched.Find(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	if body == nil {
		writeError(w, http.StatusConflict, "job %q has not finished", id)
		return nil, false
	}
	var doc JobStatus
	if err := json.Unmarshal(body, &doc); err != nil {
		writeError(w, http.StatusInternalServerError, "decoding stored job document: %v", err)
		return nil, false
	}
	if doc.Status != StatusDone {
		writeError(w, http.StatusConflict, "job %q finished %s, no result", id, doc.Status)
		return nil, false
	}
	return doc.Result, true
}

// handleBreakdown is GET /v1/jobs/{id}/breakdown: the completed job's
// stall-attribution breakdown document, replayed byte-identically from
// the stored result (JobResult.Breakdown).
func (s *Server) handleBreakdown(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	result, ok := s.doneResult(w, id)
	if !ok {
		return
	}
	var res struct {
		Breakdown json.RawMessage `json:"breakdown"`
	}
	if len(result) > 0 {
		if err := json.Unmarshal(result, &res); err != nil {
			writeError(w, http.StatusInternalServerError, "decoding stored job result: %v", err)
			return
		}
	}
	if len(res.Breakdown) == 0 || string(res.Breakdown) == "null" {
		writeError(w, http.StatusNotFound, "job %q has no breakdown (submit with \"breakdown\": true)", id)
		return
	}
	writeRaw(w, http.StatusOK, res.Breakdown)
}

// handleHotBlocks is GET /v1/jobs/{id}/hotblocks?n=10: the completed
// job's hottest coherence blocks, merged across its breakdown runs and
// ranked by attributed transaction cycles.
func (s *Server) handleHotBlocks(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	result, ok := s.doneResult(w, id)
	if !ok {
		return
	}
	var res JobResult
	if len(result) > 0 {
		if err := json.Unmarshal(result, &res); err != nil {
			writeError(w, http.StatusInternalServerError, "decoding stored job result: %v", err)
			return
		}
	}
	if res.Breakdown == nil {
		writeError(w, http.StatusNotFound, "job %q has no breakdown (submit with \"breakdown\": true)", id)
		return
	}
	type agg struct{ txns, cycles uint64 }
	m := map[uint32]*agg{}
	for _, run := range res.Breakdown.Runs {
		if run.Breakdown == nil {
			continue
		}
		for _, hb := range run.Breakdown.HotBlocks {
			a := m[hb.Block]
			if a == nil {
				a = &agg{}
				m[hb.Block] = a
			}
			a.txns += hb.Txns
			a.cycles += hb.Cycles
		}
	}
	blocks := make([]trace.HotBlock, 0, len(m))
	for b, a := range m {
		blocks = append(blocks, trace.HotBlock{Block: b, Txns: a.txns, Cycles: a.cycles})
	}
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].Cycles != blocks[j].Cycles {
			return blocks[i].Cycles > blocks[j].Cycles
		}
		return blocks[i].Block < blocks[j].Block
	})
	if len(blocks) > n {
		blocks = blocks[:n]
	}
	writeJSON(w, http.StatusOK, HotBlockList{ID: id, Blocks: blocks})
}

// handleCancel is DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if t, ok := s.sched.Cancel(id); ok {
		if body := t.terminalBody(); body != nil {
			writeRaw(w, http.StatusOK, body)
			return
		}
		writeJSON(w, http.StatusAccepted, t.Status())
		return
	}
	if _, body, _ := s.sched.Find(id); body != nil {
		writeError(w, http.StatusConflict, "job %q already finished", id)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job %q", id)
}

// handleEvents is GET /v1/jobs/{id}/events: a server-sent-event stream
// of the job's status transitions and per-simulation progress
// snapshots, ending with the terminal document.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	t, body, ok := s.sched.Find(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if t == nil {
		sseHeaders(w)
		writeSSERaw(w, "status", body)
		flusher.Flush()
		return
	}
	ch, unsub := t.events.subscribe()
	defer unsub()
	sseHeaders(w)
	writeSSE(w, "status", t.Status())
	flusher.Flush()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				// Terminal: the stored document is authoritative and can
				// never be dropped the way buffered events can.
				if body := t.terminalBody(); body != nil {
					writeSSERaw(w, "status", body)
					flusher.Flush()
				}
				return
			}
			writeSSE(w, e.Type, e.Data)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func sseHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
}

func writeSSE(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	writeSSERaw(w, event, b)
}

func writeSSERaw(w io.Writer, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleExperiments is GET /v1/experiments: everything the service can
// run, straight from the experiments catalog the CLI renders from.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	doc := ExperimentList{Scales: []string{"quick", "paper"}}
	for _, e := range experiments.Catalog() {
		formats := []string{"table"}
		if e.HasCSV() {
			formats = append(formats, "csv")
		}
		doc.Experiments = append(doc.Experiments, ExperimentInfo{
			Name:        e.Name,
			Description: e.Description,
			Formats:     formats,
		})
	}
	for _, run := range []string{"lock", "barrier", "reduction"} {
		var algos []string
		for spelling, canon := range runKinds[run].algos {
			if spelling == canon { // a canonical code spells itself
				algos = append(algos, canon)
			}
		}
		sort.Strings(algos)
		doc.Runs = append(doc.Runs, RunInfo{
			Run:       run,
			Algos:     algos,
			Protocols: []string{"WI", "PU", "CU"},
		})
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleReload is POST /v1/admin/reload: apply a hot configuration
// delta. An empty body re-reads the daemon's -config file (the HTTP
// twin of SIGHUP); a JSON body applies the carried fields directly.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.reloader == nil {
		writeError(w, http.StatusNotImplemented, "hot reload unavailable")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	st, err := s.reloader.Reload(bytes.TrimSpace(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reload: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealthz reports liveness and build identity.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":   "ok",
		"service":  "coherenced",
		"version":  buildinfo.Version,
		"revision": buildinfo.Revision(),
		"go":       runtime.Version(),
	})
}

// handleReadyz reports readiness: 503 once draining starts, so load
// balancers stop routing before the listener goes away.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.life.State()
	if st == StateReady {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": st.String()})
}

// handleMetrics renders the service counters in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.sched.Counters()
	rs := s.sched.results.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	write := func(name, help, kind string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
	}
	write("coherenced_jobs_submitted_total", "Jobs admitted to the queue.", "counter", c.Submitted)
	write("coherenced_jobs_deduplicated_total", "Submissions folded onto an identical in-flight job.", "counter", c.Deduped)
	write("coherenced_jobs_cache_hits_total", "Submissions served from the content-addressed result cache.", "counter", c.CacheHits)
	write("coherenced_jobs_rejected_total", "Submissions rejected with queue-full.", "counter", c.Rejected)
	write("coherenced_jobs_completed_total", "Jobs that finished successfully.", "counter", c.Completed)
	write("coherenced_jobs_failed_total", "Jobs that finished in error.", "counter", c.Failed)
	write("coherenced_jobs_canceled_total", "Jobs cancelled before completing.", "counter", c.Canceled)
	write("coherenced_sim_cycles_total", "Simulated cycles served to jobs (simulated or answered from the point memo).", "counter", c.SimCycles)
	write("coherenced_jobs_queued", "Jobs currently waiting in the queues.", "gauge", uint64(c.Queued))
	write("coherenced_jobs_running", "Jobs currently executing.", "gauge", uint64(c.Running))
	write("coherenced_result_cache_entries", "Entries in the result cache.", "gauge", uint64(rs.Entries))
	write("coherenced_result_cache_bytes", "Body bytes held by the in-memory result cache.", "gauge", uint64(rs.Weight))
	write("coherenced_result_cache_lookup_hits_total", "Result-cache lookup hits.", "counter", rs.Hits)
	write("coherenced_result_cache_lookup_misses_total", "Result-cache lookup misses.", "counter", rs.Misses)
	write("coherenced_result_cache_evictions_total", "Result-cache evictions.", "counter", rs.Evictions)
	write("coherenced_quota_rejected_total", "Submissions rejected by tenant admission quotas.", "counter", c.QuotaHits)
	write("coherenced_store_hits_total", "Submissions served from the durable result store.", "counter", c.StoreHits)

	ms := s.memo.Stats()
	write("coherenced_point_memo_hits_total", "Sweep points answered from the daemon's point memo, on the local path or before the fleet leased them.", "counter", ms.Hits)
	write("coherenced_point_memo_misses_total", "Sweep points the daemon or a fleet worker simulated (and the daemon memoized).", "counter", ms.Builds)
	write("coherenced_point_memo_served_cycles_total", "Simulated cycles of the points answered from the point memo: the share of coherenced_sim_cycles_total that was not re-simulated.", "counter", ms.Saved)
	write("coherenced_point_memo_entries", "Points held by the point memo.", "gauge", uint64(ms.Entries))

	if st := s.sched.cfg.Store; st != nil {
		ss := st.Stats()
		write("coherenced_store_entries", "Entries in the durable result store.", "gauge", uint64(ss.Entries))
		write("coherenced_store_bytes", "Body bytes held by the durable result store.", "gauge", uint64(ss.Bytes))
		write("coherenced_store_lookup_hits_total", "Durable-store lookup hits.", "counter", ss.Hits)
		write("coherenced_store_lookup_misses_total", "Durable-store lookup misses.", "counter", ss.Misses)
		write("coherenced_store_writes_total", "Documents written to the durable store.", "counter", ss.Writes)
		write("coherenced_store_evictions_total", "Durable-store byte-budget evictions.", "counter", ss.Evictions)
		write("coherenced_store_corrupt_repaired_total", "Corrupt or half-written store entries quarantined.", "counter", ss.Repairs)
	}

	if s.coord != nil {
		fs := s.coord.Stats()
		write("coherenced_fleet_workers_live", "Fleet workers heard from within the heartbeat timeout.", "gauge", uint64(fs.WorkersLive))
		write("coherenced_fleet_shards_dispatched_total", "Shard leases handed to fleet workers.", "counter", fs.Dispatched)
		write("coherenced_fleet_shards_completed_total", "Shards completed across the fleet.", "counter", fs.Completed)
		write("coherenced_fleet_shards_reassigned_total", "Shards requeued after worker death or failure.", "counter", fs.Reassigned)
		write("coherenced_fleet_shards_duplicate_total", "Shard completions ignored because the shard was no longer outstanding (late results after reassignment or cancellation).", "counter", fs.DupCompletes)
		write("coherenced_fleet_shards_failed_total", "Shards that exhausted their attempts.", "counter", fs.Failed)
		write("coherenced_fleet_shard_cache_hits_total", "Points answered from the durable result store instead of a lease.", "counter", fs.CacheHits)
		write("coherenced_fleet_points_coalesced_total", "Dispatched points answered without a lease of their own: from the point memo, or attached to a shard already outstanding for the same point.", "counter", fs.Coalesced)
		write("coherenced_fleet_local_runs_total", "Shards executed by the coordinator's local fallback.", "counter", fs.LocalRuns)
	}

	if s.reloader != nil {
		write("coherenced_config_reloads_total", "Successful hot configuration reloads (SIGHUP or admin endpoint).", "counter", s.reloader.Reloads())
	}

	bkt, sum, count := s.sched.TxnLatency()
	fmt.Fprintf(w, "# HELP coherenced_txn_latency_cycles Coherence-transaction latency (simulated cycles) from completed breakdown jobs.\n")
	fmt.Fprintf(w, "# TYPE coherenced_txn_latency_cycles histogram\n")
	var cum uint64
	for i, le := range trace.BucketEdges() {
		cum += bkt[i]
		if le == 0 {
			fmt.Fprintf(w, "coherenced_txn_latency_cycles_bucket{le=\"+Inf\"} %d\n", cum)
		} else {
			fmt.Fprintf(w, "coherenced_txn_latency_cycles_bucket{le=\"%d\"} %d\n", le, cum)
		}
	}
	fmt.Fprintf(w, "coherenced_txn_latency_cycles_sum %d\n", sum)
	fmt.Fprintf(w, "coherenced_txn_latency_cycles_count %d\n", count)
}
