package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/mppt"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/runner"
	"repro/internal/serve"
)

// Serve traffic. nproc clients each send their next request only when the
// previous reply has arrived (a closed loop, like the scripts that call
// hemserved). Of every ten requests a client sends, six read a cached
// experiment report, two solve a PV cell, one asks for an MPPT plan and
// one renders a small fleet under a fresh seed, which the report cache has
// never seen.
const (
	serveSetupReps  = 3
	coldFleetFmt    = "n=32,horizon=0.01,seed=%d"
	pvCurvePoints   = 16
	layerServeCount = 300 // requests per client in a layer-table loop
)

type reqKind uint8

const (
	kindExperiment reqKind = iota
	kindPVSolve
	kindMPPTPlan
	kindFleet
	numKinds
)

// routes are the kinds' route labels, as hemserved's /metrics names them.
var routes = [numKinds]string{"experiment_get", "pv_solve", "mppt_plan", "fleet_get"}

var mix = [10]reqKind{
	kindExperiment, kindPVSolve, kindExperiment, kindExperiment, kindMPPTPlan,
	kindExperiment, kindPVSolve, kindExperiment, kindExperiment, kindFleet,
}

// sample is one request. It is kept small: a run holds tens of thousands,
// and the driver's bookkeeping must not dominate the peak RSS it reports.
type sample struct {
	kind   reqKind
	status int32
	lat    time.Duration
	at     time.Duration // reply time since the loop started
}

// coldReply is a cold fleet reply, re-rendered and compared after the loop.
type coldReply struct {
	spec   string
	digest [sha256.Size]byte
}

// clientLog is what one client of a loop records.
type clientLog struct {
	samples []sample
	cold    []coldReply
	errs    []error // transport errors and failed inline checks
}

// expected answers the checks a reply can be held to while the loop runs:
// experiment reports against their goldens, PV and MPPT answers against
// the library's own.
type expected struct {
	goldens map[string][]byte
	cell    *pv.Cell
	table   *mppt.Table
}

func newExpected(goldens map[string][]byte) *expected {
	cell := pv.NewCell()
	return &expected{
		goldens: goldens,
		cell:    cell,
		table:   core.NewManager(core.NewSystem(cell, cpu.NewProcessor()), reg.NewSC()).BuildTrackingTable(serve.DefaultMPPTLevels),
	}
}

// session is one hemserved instance on loopback and its clients' shared
// transport.
type session struct {
	srv    *http.Server
	served chan error
	tr     *http.Transport
	client *http.Client
	base   string
	ids    []string
	loops  int // loops run so far; keeps cold fleet seeds fresh across loops
}

// boot starts a server with workers = nproc behind a loopback listener.
func boot(workers int) (*session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	api := serve.New(serve.Config{Workers: workers})
	s := &session{
		srv:    &http.Server{Handler: api.Handler()},
		served: make(chan error, 1),
		tr:     &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true},
		base:   "http://" + ln.Addr().String(),
		ids:    expt.Names(),
	}
	s.client = &http.Client{Transport: s.tr, Timeout: time.Minute}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for it to stop serving.
func (s *session) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.tr.CloseIdleConnections()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// do sends one request and reads the whole reply.
func (s *session) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// send issues the k-th request of client c, times it with a span, checks
// the reply and records it in log.
func (s *session) send(b *bench, want *expected, rng *rand.Rand, c, k, parent int, start time.Time, log *clientLog) {
	smp := sample{kind: mix[k%len(mix)]}
	var method, path, id, spec string
	var x float64   // irradiance (pv) or input power (mppt)
	var body []byte // json.Marshal of finite floats cannot fail
	switch smp.kind {
	case kindExperiment:
		id = s.ids[(c*7+k)%len(s.ids)]
		method, path = http.MethodGet, "/api/v1/experiments/"+id
	case kindPVSolve:
		x = 0.02 + 0.98*rng.Float64()
		method, path = http.MethodPost, "/api/v1/pv/solve"
		body, _ = json.Marshal(map[string]any{"irradiance": x, "points": pvCurvePoints})
	case kindMPPTPlan:
		x = 1e-5 * math.Pow(10, 3*rng.Float64())
		method, path = http.MethodPost, "/api/v1/mppt/plan"
		body, _ = json.Marshal(map[string]any{"pin_w": x})
	case kindFleet:
		// A seed no other request of this run uses: the render is cold.
		seed := fault.StreamSeed(b.seed, fmt.Sprintf("client/%d", c), fmt.Sprintf("fleet/%d/%d", s.loops, k))
		spec = fmt.Sprintf(coldFleetFmt, seed)
		method, path = http.MethodGet, "/api/v1/fleet/"+spec
	}
	t0 := time.Now()
	status, reply, err := s.do(method, path, body)
	end := time.Now()
	smp.lat, smp.at, smp.status = end.Sub(t0), end.Sub(start), int32(status)
	b.rec.add("http."+routes[smp.kind], parent, t0, end)
	log.samples = append(log.samples, smp)
	switch {
	case err != nil: // a transport error: the reply is not checked
	case status != http.StatusOK:
		err = fmt.Errorf("%s: status %d", routes[smp.kind], status)
	case smp.kind == kindExperiment && !bytes.Equal(reply, want.goldens[id]):
		err = fmt.Errorf("GET %s: report differs from its golden", id)
	case smp.kind == kindPVSolve:
		err = checkPVSolve(want.cell, x, reply)
	case smp.kind == kindMPPTPlan:
		err = checkMPPTPlan(want.table, x, reply)
	case smp.kind == kindFleet:
		log.cold = append(log.cold, coldReply{spec: spec, digest: sha256.Sum256(reply)})
	}
	if err != nil {
		log.errs = append(log.errs, err)
	}
}

// loop runs the closed loop on nproc clients for window or, when
// perClient > 0, until each client has sent that many requests.
func (s *session) loop(b *bench, want *expected, window time.Duration, perClient, parent int) (clientLog, time.Duration) {
	logs := make([]clientLog, b.workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(window)
	for c := 0; c < b.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(fault.StreamSeed(b.seed, fmt.Sprintf("client/%d", c), "params")))
			for k := 0; ; k++ {
				if (perClient > 0 && k >= perClient) || (perClient == 0 && !time.Now().Before(deadline)) {
					return
				}
				s.send(b, want, rng, c, k, parent, t0, &logs[c])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	s.loops++
	var all clientLog
	for _, l := range logs {
		all.samples = append(all.samples, l.samples...)
		all.cold = append(all.cold, l.cold...)
		all.errs = append(all.errs, l.errs...)
	}
	return all, wall
}

// warm is the serve set-up: boot a server and render every registry ID
// through it once, on nproc clients, checking each report.
func warm(b *bench, goldens map[string][]byte) (*session, error) {
	s, err := boot(b.workers)
	if err != nil {
		return nil, err
	}
	ids := s.ids
	errs := make([]error, len(ids))
	runner.ForEach(len(ids), b.workers, func(i int) {
		status, body, err := s.do(http.MethodGet, "/api/v1/experiments/"+ids[i], nil)
		switch {
		case err != nil:
			errs[i] = err
		case status != http.StatusOK:
			errs[i] = fmt.Errorf("GET %s: status %d", ids[i], status)
		case !bytes.Equal(body, goldens[ids[i]]):
			errs[i] = fmt.Errorf("GET %s: report differs from its golden", ids[i])
		}
	})
	for _, err := range errs {
		b.op(err)
	}
	return s, nil
}

// bootWarm repeats the set-up, timing each boot-and-render, and keeps the
// last server running.
func bootWarm(b *bench, goldens map[string][]byte) (*session, time.Duration, error) {
	var s *session
	var times []float64
	for i := 0; i < serveSetupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, fmt.Errorf("server shutdown: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = warm(b, goldens); err != nil {
			return nil, 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return s, time.Duration(median(times)), nil
}

// verify counts every reply as an operation, failing those whose inline
// checks failed and the cold fleet replies that differ from a fresh
// fleet.Run of their spec.
func verify(b *bench, log clientLog) {
	errs := make([]error, len(log.cold))
	runner.ForEach(len(log.cold), b.workers, func(i int) {
		errs[i] = checkFleetBody(log.cold[i])
	})
	for range log.samples {
		b.attempt()
	}
	for _, err := range append(log.errs, errs...) {
		if err != nil {
			b.fail("%v", err)
		}
	}
}

func checkPVSolve(cell *pv.Cell, irr float64, reply []byte) error {
	var got struct {
		Irradiance float64 `json:"irradiance"`
		VocV       float64 `json:"voc_v"`
		IscA       float64 `json:"isc_a"`
		MPPVoltage float64 `json:"mpp_v"`
		MPPPower   float64 `json:"mpp_w"`
		Curve      []struct {
			V, I, P float64
		} `json:"curve"`
	}
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("pv/solve: %w", err)
	}
	vmp, pmp := cell.MPP(irr)
	curve := cell.Curve(irr, pvCurvePoints)
	ok := got.Irradiance == irr && got.VocV == cell.OpenCircuitVoltage(irr) &&
		got.IscA == cell.ShortCircuitCurrent(irr) && got.MPPVoltage == vmp && got.MPPPower == pmp &&
		len(got.Curve) == len(curve)
	for i := 0; ok && i < len(curve); i++ {
		ok = got.Curve[i].V == curve[i].Voltage && got.Curve[i].I == curve[i].Current && got.Curve[i].P == curve[i].Power
	}
	if !ok {
		return fmt.Errorf("pv/solve at irradiance %g: reply differs from pv.Cell", irr)
	}
	return nil
}

func checkMPPTPlan(table *mppt.Table, pin float64, reply []byte) error {
	var got struct {
		PinW        float64 `json:"pin_w"`
		Irradiance  float64 `json:"irradiance"`
		MPPVoltage  float64 `json:"mpp_v"`
		SupplyV     float64 `json:"supply_v"`
		FrequencyHz float64 `json:"frequency_hz"`
		Bypass      bool    `json:"bypass"`
	}
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("mppt/plan: %w", err)
	}
	want, err := table.Lookup(pin)
	if err != nil {
		return err
	}
	if got.PinW != pin || got.Irradiance != want.Irradiance || got.MPPVoltage != want.MPPVoltage ||
		got.SupplyV != want.Supply || got.FrequencyHz != want.Frequency || got.Bypass != want.Bypass {
		return fmt.Errorf("mppt/plan at %g W: reply differs from the tracking table", pin)
	}
	return nil
}

func checkFleetBody(cold coldReply) error {
	spec, err := fleet.ParseSpec(cold.spec)
	if err != nil {
		return err
	}
	cfg := spec.Config()
	cfg.Workers = 1
	rep, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	want, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if sha256.Sum256(want) != cold.digest {
		return fmt.Errorf("fleet %s: reply differs from fleet.Run", cold.spec)
	}
	return nil
}

// perSecond counts the replies completed in each whole second of the
// window: the throughput samples whose median is reported.
func perSecond(samples []sample, window time.Duration) []float64 {
	rates := make([]float64, max(int(window/time.Second), 1))
	for _, smp := range samples {
		if i := int(smp.at / time.Second); i < len(rates) {
			rates[i]++
		}
	}
	return rates
}

// latencies splits the samples' latencies (ms) by kind.
func latencies(samples []sample) [numKinds][]float64 {
	var out [numKinds][]float64
	for _, smp := range samples {
		out[smp.kind] = append(out[smp.kind], ms(smp.lat))
	}
	return out
}

// runServe drives an in-process hemserved over loopback.
func runServe(b *bench) error {
	goldens, err := loadGoldens()
	if err != nil {
		return err
	}
	s, setup, err := bootWarm(b, goldens)
	if err != nil {
		return err
	}
	want := newExpected(goldens)
	var log clientLog
	b.measurePeak(func() { log, _ = s.loop(b, want, b.seconds, 0, 0) })
	if err := s.close(); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	verify(b, log)
	lat := latencies(log.samples)
	cached, cold := summarize(lat[kindExperiment]), summarize(lat[kindFleet])
	if cached.N == 0 || cold.N == 0 {
		return fmt.Errorf("window too short: %d cached and %d cold requests", cached.N, cold.N)
	}
	rates := perSecond(log.samples, b.seconds)
	b.metrics.set("items_per_s", median(rates), len(rates))
	b.metrics.set("p50_ms", cached.P50, cached.N)
	b.metrics.set("heavy_p50_ms", cold.P50, cold.N)
	b.metrics.set("setup_s", setup.Seconds(), serveSetupReps)
	return nil
}

// serveCounters are the server's cumulative counters that the layer table
// reports, as GET /metrics exposes them.
type serveCounters struct {
	ReportCache struct{ Hits, Misses float64 } `json:"report_cache"`
	Gate        struct{ Waited float64 }       `json:"gate"`
}

// counters reads the server's cumulative counters from GET /metrics.
func (s *session) counters() (serveCounters, error) {
	var m serveCounters
	status, body, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d, %v", status, err)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}

// serveLayers is the serve section of the layer table: a fixed number of
// requests per client, and the change in the server's own counters from
// GET /metrics over those requests.
func serveLayers(b *bench, goldens map[string][]byte) (err error) {
	var s *session
	b.untraced(func() { s, err = warm(b, goldens) })
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.close(); err == nil && cerr != nil {
			err = fmt.Errorf("server shutdown: %w", cerr)
		}
	}()
	want := newExpected(goldens)
	var untraced time.Duration
	if b.workload == "serve" {
		var log clientLog
		b.untraced(func() { log, untraced = s.loop(b, want, 0, layerServeCount, 0) })
		verify(b, log)
	}
	before, err := s.counters()
	if err != nil {
		return err
	}
	sess := b.rec.open("serve.session", 0)
	log, wall := s.loop(b, want, 0, layerServeCount, sess.ID())
	sess.done()
	b.overhead(untraced, wall)
	after, err := s.counters()
	if err != nil {
		return err
	}
	verify(b, log)
	samples := log.samples
	lat := latencies(samples)
	for k := reqKind(0); k < numKinds; k++ {
		d := summarize(lat[k])
		b.metrics.set("serve."+routes[k]+"_p50_ms", d.P50, d.N)
	}
	cached, cold := summarize(lat[kindExperiment]), summarize(lat[kindFleet])
	b.metrics.set("serve.cached_p99_ms", cached.P99, cached.N)
	b.metrics.set("serve.cold_p90_ms", cold.P90, cold.N)
	hits := after.ReportCache.Hits - before.ReportCache.Hits
	lookups := hits + after.ReportCache.Misses - before.ReportCache.Misses
	b.metrics.set("serve.report_cache_hit_ratio", hits/lookups, int(lookups))
	b.metrics.set("serve.gate_waited", after.Gate.Waited-before.Gate.Waited, 0)
	shed := 0
	for _, smp := range samples {
		if smp.status == http.StatusServiceUnavailable {
			shed++
		}
	}
	b.metrics.set("serve.shed_503", float64(shed), len(samples))
	return nil
}
