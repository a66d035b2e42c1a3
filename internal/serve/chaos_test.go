package serve

// Tests for the opt-in fault-injection surface and the resilience paths it
// exists to exercise: header gating, injected failures and latency, render
// retries in the batch path, gate holds, and the degraded stale-response
// mode.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// chaosGet issues a GET carrying a fault plan header.
func chaosGet(t *testing.T, url, plan string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan != "" {
		req.Header.Set(FaultPlanHeader, plan)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestChaosHeaderIgnoredWhenDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// An always-fail plan on a non-chaos server must be inert — even a
	// malformed one must not 400.
	for _, plan := range []string{`{"serve":{"error_prob":1}}`, `not json`} {
		resp := chaosGet(t, ts.URL+"/api/v1/experiments", plan)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("plan %q on chaos-off server: status %d, want 200", plan, resp.StatusCode)
		}
	}
}

func TestChaosBadPlanRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Chaos: true})
	resp := chaosGet(t, ts.URL+"/api/v1/experiments", `{"nope":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed plan: status %d, want 400", resp.StatusCode)
	}
}

func TestChaosInjectedFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{Chaos: true})
	resp := chaosGet(t, ts.URL+"/api/v1/experiments", `{"serve":{"error_prob":1,"error_status":503}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("error_prob=1: status %d, want 503", resp.StatusCode)
	}
	if got := s.metrics.chaosFailures.Value(); got != 1 {
		t.Errorf("chaosFailures = %d, want 1", got)
	}
	// Without the header the same server serves normally.
	resp = chaosGet(t, ts.URL+"/api/v1/experiments", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("no header: status %d, want 200", resp.StatusCode)
	}
}

func TestChaosInjectedLatency(t *testing.T) {
	_, ts := newTestServer(t, Config{Chaos: true})
	start := time.Now()
	resp := chaosGet(t, ts.URL+"/healthz", `{"serve":{"latency_ms":60}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("latency injection too fast: %v < 60ms", elapsed)
	}
}

func TestChaosRenderFaultAndBatchRetry(t *testing.T) {
	s, ts := newTestServer(t, Config{Chaos: true, Workers: 2})
	// render_error_prob=1: every cached render — report, CSV, trace and
	// profile alike — fails each attempt with an injected error (500 with
	// the error envelope), and the batch path exhausts its retries.
	for _, path := range []string{
		"/api/v1/experiments/fig2",
		"/api/v1/experiments/fig2?format=csv",
		"/api/v1/experiments/fig11b/trace",
		"/api/v1/experiments/fig11b/profile",
	} {
		resp := chaosGet(t, ts.URL+path, `{"serve":{"render_error_prob":1}}`)
		var env struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Errorf("render fault on %s: body: %v", path, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(env.Error, "render fault") {
			t.Errorf("render fault on %s: status %d, error %q; want 500 with the injected error", path, resp.StatusCode, env.Error)
		}
	}
	req, err := http.NewRequest("POST", ts.URL+"/api/v1/experiments/batch",
		strings.NewReader(`{"ids":["fig2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(FaultPlanHeader, `{"serve":{"render_error_prob":1}}`)
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var out struct {
		Results []struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(bresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Error == "" {
		t.Fatalf("batch under render faults: %+v, want injected error", out.Results)
	}
	if got := s.metrics.renderRetries.Value(); got != renderRetries-1 {
		t.Errorf("renderRetries = %d, want %d", got, renderRetries-1)
	}
}

func TestChaosBatchRetrySucceedsOnTransientFault(t *testing.T) {
	// With a sub-1 probability the retry loop should recover. The injector
	// is deterministic per seed, so probe seeds offline for a draw sequence
	// that fails the first render attempt and recovers within the retry
	// budget, then replay that seed through the server. Draw order per
	// request: one middleware Decide, then one per render attempt.
	plan := fault.ServePlan{RenderErrorProb: 0.5}
	seed := int64(-1)
	for cand := int64(0); cand < 64; cand++ {
		probe := fault.NewServe(cand)
		probe.Decide(plan) // middleware draw
		var attempts []bool
		for i := 0; i < renderRetries; i++ {
			attempts = append(attempts, probe.Decide(plan).RenderFault)
		}
		fails, recovers := attempts[0], false
		for _, f := range attempts[1:] {
			if !f {
				recovers = true
			}
		}
		if fails && recovers {
			seed = cand
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed in [0,64) fails-then-recovers; injector draw order changed?")
	}

	s, ts := newTestServer(t, Config{Chaos: true, Workers: 2})
	req, err := http.NewRequest("POST", ts.URL+"/api/v1/experiments/batch",
		strings.NewReader(`{"ids":["fig2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(FaultPlanHeader,
		fmt.Sprintf(`{"seed":%d,"serve":{"render_error_prob":0.5}}`, seed))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct {
			ID     string `json:"id"`
			Report string `json:"report"`
			Error  string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Error != "" || out.Results[0].Report == "" {
		t.Fatalf("batch retry did not recover: %+v", out.Results)
	}
	if got := s.metrics.renderRetries.Value(); got == 0 {
		t.Error("recovery without any retry recorded")
	}
}

func TestRetryBackoffShape(t *testing.T) {
	for attempt := 1; attempt < renderRetries; attempt++ {
		lo := retryBase << (attempt - 1)
		d := retryBackoff("fig2", attempt)
		if d < lo || d >= 2*lo {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, lo, 2*lo)
		}
		if d != retryBackoff("fig2", attempt) {
			t.Errorf("attempt %d: backoff not deterministic", attempt)
		}
	}
	if retryBackoff("fig2", 1) == retryBackoff("fig3", 1) {
		t.Error("jitter identical across ids; workers would stampede in lockstep")
	}
}

func TestStaleServedWhenSaturated(t *testing.T) {
	// 500 ms covers the warm renders comfortably but lets the saturated
	// request's server-side deadline trip while the client is still there
	// to receive the degraded response.
	s, ts := newTestServer(t, Config{
		Workers: 1, ReportCacheSize: 1, RequestTimeout: 500 * time.Millisecond,
	})
	// Warm the stale store, then evict fig2's LRU entry with another render.
	if code, _ := get(t, ts.URL+"/api/v1/experiments/fig2"); code != http.StatusOK {
		t.Fatalf("warm render failed: %d", code)
	}
	if code, _ := get(t, ts.URL+"/api/v1/experiments/fig3"); code != http.StatusOK {
		t.Fatalf("evicting render failed: %d", code)
	}
	if _, ok := s.reports.lru.get(renderKey("fig2", "")); ok {
		t.Fatal("fig2 still in LRU; eviction setup broken")
	}
	// Saturate the gate: park a task on the only slot so the re-render
	// queues until the request deadline expires.
	release := make(chan struct{})
	parked := make(chan struct{})
	go s.gate.Do(context.Background(), func() error {
		close(parked)
		<-release
		return nil
	})
	<-parked
	defer close(release)

	resp, err := http.Get(ts.URL + "/api/v1/experiments/fig2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated request: status %d, want 200 (stale)", resp.StatusCode)
	}
	if w := resp.Header.Get("Warning"); !strings.Contains(w, "110") {
		t.Errorf("stale response missing Warning 110 header: %q", w)
	}
	if got := s.metrics.staleServed.Value(); got != 1 {
		t.Errorf("staleServed = %d, want 1", got)
	}
}

func TestStaleNotServedForRealErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Unknown IDs stay 404 even with a populated stale store.
	if code, _ := get(t, ts.URL+"/api/v1/experiments/fig2"); code != http.StatusOK {
		t.Fatal("warm render failed")
	}
	if code, _ := get(t, ts.URL+"/api/v1/experiments/nope"); code != http.StatusNotFound {
		t.Errorf("unknown id: want 404, got %d", code)
	}
}

func TestChaosGateHold(t *testing.T) {
	_, ts := newTestServer(t, Config{Chaos: true, Workers: 1, ReportCacheSize: 1})
	start := time.Now()
	resp := chaosGet(t, ts.URL+"/api/v1/experiments/fig2", `{"serve":{"gate_hold_ms":80}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("gate hold not applied: %v < 80ms", elapsed)
	}
}

func TestChaosTableBounded(t *testing.T) {
	var tbl chaosTable
	for seed := int64(0); seed < maxChaosSeeds+10; seed++ {
		tbl.get(seed)
	}
	tbl.mu.Lock()
	n := len(tbl.injs)
	tbl.mu.Unlock()
	if n > maxChaosSeeds {
		t.Errorf("chaos table grew to %d entries, cap is %d", n, maxChaosSeeds)
	}
}
