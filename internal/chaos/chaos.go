// Package chaos is the deterministic chaos harness: it composes
// internal/faults specs into phased, seeded scenario timelines, drives a
// schedload-style workload through an in-process serve stack behind a real
// loopback listener, and machine-checks invariants after every run — every
// response is either a documented error envelope or byte-identical to the
// fault-free golden; serve's metrics conserve (requests_total equals the sum
// of per-outcome counters); queue depth and in-flight return to zero; the
// goroutine count returns to its pre-scenario baseline; the circuit
// breaker only ever takes legal state-machine transitions; every configured
// fault kind actually fires; panics are accounted exactly; and spans
// conserve (exactly one well-formed span tree per request on each side,
// even for rejected, faulted or panicking requests).
//
// Determinism is the point: a scenario is replayed request by request from
// an explicit seed, serially, so the injector's decision stream — and with
// it every count in the verdict Report — is exactly reproducible. The same
// seed produces a byte-identical report; flipping any fault probability
// changes it deterministically. Wall-clock shapes only when requests are
// sent (backoff, injected latency), never what any response contains, and
// no timing value appears in the report.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/etc"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// PanicSeed is the sentinel request seed the harness's serve.PanicTrigger
// panics on: scenarios schedule deliberate worker panics by sending an
// otherwise-valid request with this seed. Workload seeds must differ.
const PanicSeed uint64 = 0x70616e6963 // "panic"

// Phase is one segment of a scenario timeline: a request count (phases are
// request-counted, not wall-clock timed, so replays are deterministic) and
// the fault regime in force while those requests are sent.
type Phase struct {
	Name string `json:"name"`
	// Requests is how many workload requests this phase sends, serially.
	Requests int `json:"requests"`
	// Faults is an internal/faults spec (e.g. "latency=0.3:1ms,drop=0.25")
	// wrapped around the server for the phase; empty means fault-free. A
	// seed= field is supplied by the harness (derived from the scenario
	// seed and phase index) and must not appear here.
	Faults string `json:"faults,omitempty"`
	// PanicEvery, when positive, replaces every PanicEvery-th request with
	// a PanicSeed request that deliberately panics a worker.
	PanicEvery int `json:"panic_every,omitempty"`
	// BatchEvery, when positive, sends every BatchEvery-th request as a
	// POST /v1/batch carrying all Distinct workload bodies as items. A
	// request that is both a panic and a batch slot panics (panic wins).
	BatchEvery int `json:"batch_every,omitempty"`
}

// Scenario is a phased, seeded failure schedule.
type Scenario struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Seed        uint64  `json:"seed"`
	Tasks       int     `json:"tasks"`
	Machines    int     `json:"machines"`
	Distinct    int     `json:"distinct"`
	Heuristic   string  `json:"heuristic"`
	MaxRetries  int     `json:"max_retries"`
	Threshold   int     `json:"breaker_threshold"`
	Phases      []Phase `json:"phases"`
}

func (sc Scenario) validate() error {
	if sc.Name == "" {
		return errors.New("chaos: scenario needs a name")
	}
	if sc.Seed == PanicSeed {
		return fmt.Errorf("chaos: scenario seed %#x collides with the panic sentinel", sc.Seed)
	}
	if sc.Tasks <= 0 || sc.Machines <= 0 || sc.Distinct <= 0 {
		return errors.New("chaos: tasks, machines and distinct must be positive")
	}
	if len(sc.Phases) == 0 {
		return errors.New("chaos: scenario needs at least one phase")
	}
	for i, ph := range sc.Phases {
		if ph.Requests <= 0 {
			return fmt.Errorf("chaos: phase %d (%s) needs a positive request count", i, ph.Name)
		}
		if strings.Contains(ph.Faults, "seed=") {
			return fmt.Errorf("chaos: phase %d (%s) must not pin its own fault seed", i, ph.Name)
		}
		if ph.PanicEvery < 0 || ph.BatchEvery < 0 {
			return fmt.Errorf("chaos: phase %d (%s) needs non-negative PanicEvery and BatchEvery", i, ph.Name)
		}
	}
	return nil
}

// PhaseReport is one phase's outcome tally. Every request resolves to
// exactly one bucket, so OK+Mismatch+Transport+BreakerFastFail+sum(Errors)
// equals Requests.
type PhaseReport struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// OK counts 200s byte-identical to the fault-free golden.
	OK int `json:"ok"`
	// Mismatch counts 200s whose body differed from the golden — always an
	// invariant violation.
	Mismatch int `json:"mismatch"`
	// Errors tallies error envelopes by "status:code", e.g. "503:injected_fault".
	Errors map[string]int `json:"errors,omitempty"`
	// Transport counts requests that exhausted retries on transport-level
	// faults (dropped connections, truncated bodies).
	Transport int `json:"transport"`
	// BreakerFastFail counts requests refused locally by the open breaker.
	BreakerFastFail int `json:"breaker_fastfail"`
	// BatchPosts counts the phase's requests sent as /v1/batch posts (a
	// subset of Requests; each batch post fills exactly one outcome bucket
	// above, so conservation is unchanged).
	BatchPosts int `json:"batch_posts,omitempty"`
	// BatchItemsOK counts batch items byte-identical to their goldens.
	BatchItemsOK int `json:"batch_items_ok,omitempty"`
	// BatchItemErrors tallies batch item error envelopes by "status:code" —
	// item-level failures inside 200 batch envelopes.
	BatchItemErrors map[string]int `json:"batch_item_errors,omitempty"`
}

// InvariantResult is one machine-checked invariant's verdict.
type InvariantResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Report is a scenario run's full verdict. It is deterministic in the
// scenario: no timestamps, durations or addresses — same seed, same bytes.
type Report struct {
	Scenario    string        `json:"scenario"`
	Description string        `json:"description"`
	Seed        uint64        `json:"seed"`
	Phases      []PhaseReport `json:"phases"`
	// Recovered counts the post-storm fault-free replays that came back
	// byte-identical to their goldens (want: one per distinct body).
	Recovered int `json:"recovered"`
	// BreakerTransitions is the breaker's observed edge sequence, e.g.
	// "closed->open".
	BreakerTransitions []string `json:"breaker_transitions,omitempty"`
	// Panics is serve.panics_total after the run.
	Panics     int64             `json:"panics"`
	Invariants []InvariantResult `json:"invariants"`
	Pass       bool              `json:"pass"`
}

// settle marks the report passed iff every invariant holds.
func (r *Report) settle() {
	r.Pass = true
	for _, inv := range r.Invariants {
		r.Pass = r.Pass && inv.OK
	}
}

// Err returns nil when the report passed, else an error naming the first
// violated invariant and its detail.
func (r *Report) Err() error {
	if r.Pass {
		return nil
	}
	for _, inv := range r.Invariants {
		if !inv.OK {
			return fmt.Errorf("scenario %s: invariant %s violated: %s", r.Scenario, inv.Name, inv.Detail)
		}
	}
	return fmt.Errorf("scenario %s failed", r.Scenario)
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// documentedCodes is the closed set of error codes a response may carry:
// the serve envelope codes plus the injector's own. Anything else fails the
// "responses" invariant.
var documentedCodes = map[string]bool{
	serve.CodeBadRequest:       true,
	serve.CodeMethodNotAllowed: true,
	serve.CodePayloadTooLarge:  true,
	serve.CodeValidationFailed: true,
	serve.CodeOverloaded:       true,
	serve.CodeInternal:         true,
	serve.CodePanic:            true,
	serve.CodeDraining:         true,
	serve.CodeDeadlineExceeded: true,
	// The cluster gateway's only gateway-originated error code (see
	// internal/cluster): every ranked backend unreachable.
	serve.CodeUpstreamUnavailable: true,
	"injected_fault":              true,
}

// legalBreakerEdges is the breaker's state machine: closed trips open, open
// cools into a half-open probe, and the probe's outcome decides.
var legalBreakerEdges = map[string]bool{
	"closed->open":      true,
	"open->half-open":   true,
	"half-open->closed": true,
	"half-open->open":   true,
}

// Run replays one scenario and returns its verdict report. The returned
// error covers harness failures (bad scenario, no listener); invariant
// violations are reported in Report.Invariants/Pass, not as errors.
func Run(sc Scenario) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if sc.Heuristic == "" {
		sc.Heuristic = "min-min"
	}
	if sc.Threshold == 0 {
		sc.Threshold = 1 << 20 // effectively untrippable unless the scenario asks
	}

	baseline := runtime.NumGoroutine()
	reg := obs.NewMetrics()
	collector := &obs.Collector{}
	// Spans collect separately per side so the span-conservation invariant
	// can compare each stream against its own arrival count.
	serveSpans := &obs.Collector{}
	clientSpans := &obs.Collector{}
	srv := serve.NewServer(serve.Options{
		Workers:    2,
		QueueDepth: 256,
		Metrics:    reg,
		Observer:   collector,
		Tracer:     obs.NewTracer(serveSpans),
		PanicTrigger: func(seed uint64) {
			if seed == PanicSeed {
				panic("chaos: deliberate panic (sentinel seed)")
			}
		},
	})

	// The phase boundary is a handler swap: the serve stack stays up the
	// whole run while each phase wraps it in that phase's fault injector.
	var handler atomic.Pointer[http.Handler]
	store := func(h http.Handler) { handler.Store(&h) }
	store(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		// Severed connections are the drop fault doing its job, not noise.
		ErrorLog: log.New(io.Discard, "", 0),
	}
	go hs.Serve(ln)
	target := "http://" + ln.Addr().String() + "/v1/iterate"

	// Deterministic workload: Distinct bodies from the scenario seed, plus
	// one panic body (the first matrix under the sentinel seed — a distinct
	// cache key that always reaches a worker and always panics).
	class := classByLabel("hihi-i")
	src := rng.New(sc.Seed)
	reqs := make([]serve.Request, sc.Distinct)
	bodies := make([][]byte, sc.Distinct)
	var panicBody []byte
	for i := range bodies {
		m, err := etc.GenerateClass(class, sc.Tasks, sc.Machines, src)
		if err != nil {
			return nil, fmt.Errorf("chaos: generating workload: %w", err)
		}
		reqs[i] = serve.Request{ETC: m.Values(), Heuristic: sc.Heuristic, Ties: "det", Seed: sc.Seed}
		bodies[i], err = json.Marshal(reqs[i])
		if err != nil {
			return nil, err
		}
		if i == 0 {
			panicBody, err = json.Marshal(serve.Request{ETC: m.Values(), Heuristic: sc.Heuristic, Ties: "det", Seed: PanicSeed})
			if err != nil {
				return nil, err
			}
		}
	}
	// The batch body carries every distinct workload as one /v1/batch post;
	// phases with BatchEvery interleave it with the singleton stream.
	batchItems := make([]serve.BatchItem, sc.Distinct)
	for i, rq := range reqs {
		batchItems[i] = serve.BatchItem{Endpoint: "iterate", Request: rq}
	}
	batchBody, err := json.Marshal(serve.BatchRequest{Items: batchItems})
	if err != nil {
		return nil, err
	}
	batchTarget := "http://" + ln.Addr().String() + "/v1/batch"
	batchUsed := false
	for _, ph := range sc.Phases {
		if ph.BatchEvery > 0 {
			batchUsed = true
		}
	}

	// Keep-alives must stay off for the whole run: net/http transparently
	// replays a request whose reused connection dies before any response
	// byte arrives, and that hidden extra arrival would shift the
	// injector's seeded decision stream nondeterministically. With one
	// fresh connection per request, every arrival at the injector is one
	// the harness sent.
	tr := &http.Transport{DisableKeepAlives: true}

	// Fault-free goldens, computed through the same listener before any
	// phase: the reference bytes every later 200 must match.
	goldens := make([][]byte, sc.Distinct)
	plain := &http.Client{Timeout: 30 * time.Second, Transport: tr}
	for i, b := range bodies {
		resp, err := plain.Post(target, "application/json", bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("chaos: golden request %d: %w", i, err)
		}
		golden, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("chaos: golden request %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("chaos: golden request %d: status %d: %s", i, resp.StatusCode, golden)
		}
		goldens[i] = golden
	}
	// Batch items embed the singleton bytes minus the trailing newline.
	goldenItems := make([][]byte, sc.Distinct)
	for i, g := range goldens {
		goldenItems[i] = bytes.TrimSuffix(g, []byte("\n"))
	}

	// One resilient client for the whole run, so the breaker sees the full
	// request stream. The 1ns cooldown keeps serial replays deterministic:
	// by the next request the cooldown has always elapsed, so an open
	// breaker always admits exactly one probe. Backoffs are capped at
	// single-digit milliseconds — they shape pacing only.
	cl := client.New(client.Options{
		MaxRetries:       sc.MaxRetries,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		Timeout:          10 * time.Second,
		Seed:             sc.Seed,
		BreakerThreshold: sc.Threshold,
		BreakerCooldown:  time.Nanosecond,
		HTTPClient:       &http.Client{Transport: tr},
		Metrics:          reg,
		Observer:         collector,
		Tracer:           obs.NewTracer(clientSpans),
	})

	rep := &Report{Scenario: sc.Name, Description: sc.Description, Seed: sc.Seed}
	var violations []string
	violate := func(format string, args ...any) {
		if len(violations) < 16 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	var specs []faults.Spec // one per faulted phase, for the faults_exercised invariant
	panicsScheduled := 0
	postCalls := 0 // resilient-client Posts: each must yield exactly one client root span
	next := 0      // workload cursor: distinct bodies cycle across phases
	for pi, ph := range sc.Phases {
		pr := PhaseReport{Name: ph.Name, Requests: ph.Requests, Errors: map[string]int{}}
		if ph.Faults != "" {
			// Each phase's injector draws from its own derived seed so the
			// fault decision stream is fixed per (scenario seed, phase).
			spec, err := faults.Parse(fmt.Sprintf("seed=%d,%s", sc.Seed+uint64(pi)+1, ph.Faults))
			if err != nil {
				return nil, fmt.Errorf("chaos: phase %d (%s): %w", pi, ph.Name, err)
			}
			specs = append(specs, spec)
			store(faults.New(spec, srv.Handler(), reg))
		} else {
			store(srv.Handler())
		}
		for i := 0; i < ph.Requests; i++ {
			isPanic := ph.PanicEvery > 0 && (i+1)%ph.PanicEvery == 0
			if !isPanic && ph.BatchEvery > 0 && (i+1)%ph.BatchEvery == 0 {
				// A batch slot posts every distinct body in one exchange; it
				// fills exactly one outcome bucket, like any other request.
				pr.BatchPosts++
				resp, err := cl.Post(context.Background(), batchTarget, batchBody)
				postCalls++
				var se *client.StatusError
				switch {
				case err == nil:
					if detail := tallyBatchItems(resp.Body, goldenItems, &pr); detail == "" {
						pr.OK++
					} else {
						pr.Mismatch++
						violate("phase %s request %d: %s", ph.Name, i, detail)
					}
				case errors.Is(err, client.ErrBreakerOpen):
					pr.BreakerFastFail++
				case errors.As(err, &se):
					code := envelopeCode(se.Body)
					pr.Errors[fmt.Sprintf("%d:%s", se.Status, code)]++
					if !documentedCodes[code] {
						violate("phase %s request %d: undocumented error code %q (status %d)", ph.Name, i, code, se.Status)
					}
				default:
					pr.Transport++
				}
				continue
			}
			body, k := bodies[next%sc.Distinct], next%sc.Distinct
			next++
			if isPanic {
				body, k = panicBody, -1
				panicsScheduled++
			}
			resp, err := cl.Post(context.Background(), target, body)
			postCalls++
			var se *client.StatusError
			switch {
			case err == nil:
				if isPanic {
					pr.Mismatch++
					violate("phase %s request %d: panic request returned 200", ph.Name, i)
				} else if bytes.Equal(resp.Body, goldens[k]) {
					pr.OK++
				} else {
					pr.Mismatch++
					violate("phase %s request %d: 200 body differs from golden %d", ph.Name, i, k)
				}
			case errors.Is(err, client.ErrBreakerOpen):
				pr.BreakerFastFail++
			case errors.As(err, &se):
				code := envelopeCode(se.Body)
				pr.Errors[fmt.Sprintf("%d:%s", se.Status, code)]++
				if !documentedCodes[code] {
					violate("phase %s request %d: undocumented error code %q (status %d)", ph.Name, i, code, se.Status)
				}
			default:
				pr.Transport++
			}
		}
		rep.Phases = append(rep.Phases, pr)
	}

	// Recovery: faults off, every distinct body must come back 200 and
	// byte-identical — the disrupted system has returned to correct state.
	store(srv.Handler())
	for i, b := range bodies {
		resp, err := cl.Post(context.Background(), target, b)
		postCalls++
		if err != nil {
			violate("recovery request %d: %v", i, errorClass(err))
			continue
		}
		if !bytes.Equal(resp.Body, goldens[i]) {
			violate("recovery request %d: body differs from golden", i)
			continue
		}
		rep.Recovered++
	}
	if batchUsed {
		// The batch path must have recovered too: one fault-free batch post,
		// every item byte-identical to its golden.
		resp, err := cl.Post(context.Background(), batchTarget, batchBody)
		postCalls++
		if err != nil {
			violate("recovery batch: %v", errorClass(err))
		} else {
			var tally PhaseReport
			if detail := tallyBatchItems(resp.Body, goldenItems, &tally); detail != "" {
				violate("recovery batch: %s", detail)
			} else if tally.BatchItemsOK != sc.Distinct {
				violate("recovery batch: %d of %d items byte-identical", tally.BatchItemsOK, sc.Distinct)
			}
		}
	}

	// Quiesce: stop accepting, drain the worker pool, release idle conns.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return nil, fmt.Errorf("chaos: shutdown: %w", err)
	}
	if err := srv.Drain(sctx); err != nil {
		return nil, fmt.Errorf("chaos: drain: %w", err)
	}
	tr.CloseIdleConnections()
	plain.CloseIdleConnections()

	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	gauges := map[string]float64{}
	for _, g := range reg.Snapshot().Gauges {
		gauges[g.Name] = g.Value
	}
	rep.Panics = counters["serve.panics_total"]
	for _, e := range collector.Events() {
		if bt, ok := e.(obs.BreakerTransition); ok {
			rep.BreakerTransitions = append(rep.BreakerTransitions, bt.From+"->"+bt.To)
		}
	}

	check := func(name string, ok bool, detail string) {
		rep.Invariants = append(rep.Invariants, InvariantResult{Name: name, OK: ok, Detail: detail})
	}

	check("responses", len(violations) == 0,
		responsesDetail(violations))
	total, sum := counters["serve.requests_total"],
		counters["serve.responses_2xx"]+counters["serve.responses_4xx"]+counters["serve.responses_5xx"]
	check("metrics_conservation", total == sum,
		fmt.Sprintf("serve.requests_total=%d, 2xx+4xx+5xx=%d", total, sum))
	check("quiesced", gauges["serve.queue_depth"] == 0 && gauges["serve.inflight"] == 0,
		fmt.Sprintf("queue_depth=%g inflight=%g", gauges["serve.queue_depth"], gauges["serve.inflight"]))
	check("recovery", rep.Recovered == sc.Distinct,
		fmt.Sprintf("%d of %d fault-free replays byte-identical", rep.Recovered, sc.Distinct))
	check(panicsAccounted(rep.Panics, collector.Events(), panicsScheduled))
	check(faultsExercised(specs, sc.MaxRetries, counters))
	check("breaker_legal", breakerLegal(rep.BreakerTransitions),
		fmt.Sprintf("%d transitions: %s", len(rep.BreakerTransitions), strings.Join(rep.BreakerTransitions, " ")))
	// Span conservation: exactly one well-formed span tree per request on
	// each side — server roots match serve arrivals (requests_total covers
	// goldens, retries and faulted arrivals alike; requests the injector
	// answered without reaching serve produce no serve trace and no count),
	// client roots match resilient-client Posts, and neither stream has a
	// structural violation (several roots, orphan parents, stages past their
	// root), even for rejected, faulted or panicking requests.
	srvSpanList := spansOf(serveSpans)
	srvSum := obs.SummarizeSpans(srvSpanList)
	clSum := obs.SummarizeSpans(spansOf(clientSpans))
	spanDetail := fmt.Sprintf("server %d roots for %d arrivals, client %d roots for %d posts",
		srvSum.Roots, total, clSum.Roots, postCalls)
	if !srvSum.WellFormed() || !clSum.WellFormed() {
		spanDetail += "; malformed: " + strings.Join(append(srvSum.Malformed, clSum.Malformed...), "; ")
	}
	check("span_conservation",
		srvSum.WellFormed() && clSum.WellFormed() &&
			int64(srvSum.Roots) == total && clSum.Roots == postCalls,
		spanDetail)
	// Batch children conserve too: batch_split and batch_merge bracket the
	// per-item fan-out and must pair one-to-one on every served batch (the
	// whole-envelope cache fast path legitimately emits neither).
	splits, merges := 0, 0
	for _, sp := range srvSpanList {
		switch sp.Name {
		case "batch_split":
			splits++
		case "batch_merge":
			merges++
		}
	}
	check("batch_spans", splits == merges,
		fmt.Sprintf("%d batch_split vs %d batch_merge spans", splits, merges))
	leaked, goroutines := goroutineLeak(baseline)
	// The passing detail carries no counts: the pre-run baseline depends on
	// process state (idle pool goroutines from earlier runs), and absolute
	// numbers would break the byte-identical-report promise. A failing
	// detail may name the counts — a leak has already broken determinism.
	goroutineDetail := "returned to baseline within slack"
	if leaked {
		goroutineDetail = fmt.Sprintf("leak: %d goroutines vs baseline %d", goroutines, baseline)
	}
	check("goroutines", !leaked, goroutineDetail)

	rep.settle()
	return rep, nil
}

// panicsAccounted is the panics_accounted invariant: serve.panics_total,
// the panic_recovered events and the status-500 request_done events must
// all agree exactly, and be non-zero exactly when the scenario scheduled
// panics. The client retries 500s, so one scheduled panic request can
// account for several panics; the three server-side tallies never drift
// apart.
func panicsAccounted(panics int64, events []obs.Event, scheduled int) (string, bool, string) {
	var recovered, done500 int64
	for _, e := range events {
		switch ev := e.(type) {
		case obs.PanicRecovered:
			recovered++
		case obs.RequestDone:
			if ev.Status == http.StatusInternalServerError {
				done500++
			}
		}
	}
	ok := panics == recovered && panics == done500 && (panics > 0) == (scheduled > 0)
	return "panics_accounted", ok, fmt.Sprintf("serve.panics_total=%d, %d panic_recovered events, %d status-500 request_done events for %d scheduled panic requests",
		panics, recovered, done500, scheduled)
}

// faultsExercised is the faults_exercised invariant: every fault kind any
// phase configures must have fired at least once, and when a configured
// kind fails attempts outright (reject, drop, truncate) and the client may
// retry, the client must have retried. A storm whose faults never fire
// would otherwise pass every other invariant vacuously.
func faultsExercised(specs []faults.Spec, maxRetries int, counters map[string]int64) (string, bool, string) {
	// configured[i] is whether any phase sets kind i; every kind but
	// latency fails the attempt it hits.
	kinds := [...]string{"latency", "reject", "drop", "truncate"}
	var configured [len(kinds)]bool
	for _, s := range specs {
		for i, p := range [...]float64{s.LatencyP, s.RejectP, s.DropP, s.TruncateP} {
			configured[i] = configured[i] || p > 0
		}
	}
	ok, failing := true, false
	var fired []string
	for i, kind := range kinds {
		if !configured[i] {
			continue
		}
		failing = failing || i > 0
		n := counters["faults."+kind+"_total"]
		ok = ok && n > 0
		fired = append(fired, fmt.Sprintf("%s=%d", kind, n))
	}
	if len(fired) == 0 {
		return "faults_exercised", true, "no phase configures faults"
	}
	retries := counters["client.retries_total"]
	if failing && maxRetries >= 0 {
		ok = ok && retries > 0
	}
	return "faults_exercised", ok, fmt.Sprintf("configured faults fired %s; client.retries_total=%d",
		strings.Join(fired, " "), retries)
}

// tallyBatchItems checks one 200 batch envelope: every item must be a 200
// byte-identical to its golden or carry a documented error code. Item
// tallies accumulate into pr; the return value is a violation detail, empty
// when the envelope is clean (item-level documented errors are clean — the
// batch reported them correctly).
func tallyBatchItems(envelope []byte, goldenItems [][]byte, pr *PhaseReport) string {
	var br serve.BatchResponse
	if err := json.Unmarshal(envelope, &br); err != nil {
		return "batch envelope unparseable"
	}
	if len(br.Results) != len(goldenItems) {
		return fmt.Sprintf("batch envelope has %d results for %d items", len(br.Results), len(goldenItems))
	}
	detail := ""
	for i, res := range br.Results {
		if res.Status == http.StatusOK {
			if bytes.Equal(res.Body, goldenItems[i]) {
				pr.BatchItemsOK++
			} else if detail == "" {
				detail = fmt.Sprintf("batch item %d: 200 body differs from golden", i)
			}
			continue
		}
		code := envelopeCode(res.Body)
		if pr.BatchItemErrors == nil {
			pr.BatchItemErrors = map[string]int{}
		}
		pr.BatchItemErrors[fmt.Sprintf("%d:%s", res.Status, code)]++
		if !documentedCodes[code] && detail == "" {
			detail = fmt.Sprintf("batch item %d: undocumented error code %q (status %d)", i, code, res.Status)
		}
	}
	return detail
}

// spansOf extracts the span events from a collector.
func spansOf(col *obs.Collector) []obs.Span {
	var out []obs.Span
	for _, e := range col.Events() {
		if sp, ok := e.(obs.Span); ok {
			out = append(out, sp)
		}
	}
	return out
}

// responsesDetail summarizes the violation list (already capped) for the
// responses invariant.
func responsesDetail(violations []string) string {
	if len(violations) == 0 {
		return "every response documented or byte-identical to golden"
	}
	return strings.Join(violations, "; ")
}

// errorClass renders an error for the report without nondeterministic
// detail (ports, raw transport messages).
func errorClass(err error) string {
	var se *client.StatusError
	switch {
	case errors.Is(err, client.ErrBreakerOpen):
		return "breaker fast-fail"
	case errors.As(err, &se):
		return fmt.Sprintf("status %d (%s)", se.Status, envelopeCode(se.Body))
	default:
		return "transport failure"
	}
}

// envelopeCode extracts the error code from an envelope body; unparseable
// bodies classify as "(unparseable)" and fail the documented-code check.
func envelopeCode(body []byte) string {
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code == "" {
		return "(unparseable)"
	}
	return er.Error.Code
}

// breakerLegal verifies the observed transition sequence walks the legal
// state machine from closed and, if the breaker tripped at all, ends closed
// (the recovery phase must have healed it).
func breakerLegal(transitions []string) bool {
	state := "closed"
	for _, tr := range transitions {
		if !legalBreakerEdges[tr] {
			return false
		}
		from, to, _ := strings.Cut(tr, "->")
		if from != state {
			return false
		}
		state = to
	}
	return state == "closed"
}

// goroutineLeak polls until the goroutine count returns to the baseline
// (plus slack for runtime internals) or the deadline passes. Wall-clock
// bounded, but the verdict it feeds into the report is boolean — timing
// never shapes report bytes beyond pass/fail of a genuine leak.
func goroutineLeak(baseline int) (leaked bool, count int) {
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		count = runtime.NumGoroutine()
		if count <= baseline+slack {
			return false, count
		}
		if time.Now().After(deadline) {
			return true, count
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// classByLabel resolves a workload class; the harness pins hihi-i (the
// paper's hardest heterogeneity regime).
func classByLabel(label string) etc.Class {
	for _, c := range etc.AllClasses() {
		if c.Label() == label {
			return c
		}
	}
	return etc.Class{}
}

// Builtin returns the harness's stock scenarios, each a phased failure
// schedule with a pinned seed. Names are stable: scripts and selfchecks
// refer to them.
func Builtin() []Scenario {
	return []Scenario{
		{
			Name:        "storm",
			Description: "healthy baseline, latency+drop storm, reject burst, recovery",
			Seed:        7, Tasks: 12, Machines: 4, Distinct: 4,
			Heuristic: "min-min", MaxRetries: 8,
			Phases: []Phase{
				{Name: "healthy", Requests: 12},
				// 24 requests, not 12: under seed 7 a 12-request phase draws
				// no drop at all, which faults_exercised rejects.
				{Name: "latency-drop", Requests: 24, Faults: "latency=0.3:1ms,drop=0.25"},
				{Name: "reject-burst", Requests: 12, Faults: "reject=0.5:503:1"},
				{Name: "calm", Requests: 12},
			},
		},
		{
			Name:        "truncate-flood",
			Description: "truncated bodies flood the client; retries must recover exact bytes",
			Seed:        11, Tasks: 10, Machines: 5, Distinct: 3,
			Heuristic: "sufferage", MaxRetries: 8,
			Phases: []Phase{
				{Name: "healthy", Requests: 6},
				{Name: "flood", Requests: 18, Faults: "truncate=0.6"},
				{Name: "calm", Requests: 6},
			},
		},
		{
			Name:        "batch-storm",
			Description: "mixed singleton and batch traffic under latency and truncation; batch items stay byte-identical or documented",
			Seed:        19, Tasks: 10, Machines: 4, Distinct: 3,
			Heuristic: "min-min", MaxRetries: 8,
			Phases: []Phase{
				{Name: "healthy", Requests: 8, BatchEvery: 2},
				{Name: "latency-truncate", Requests: 16, BatchEvery: 2, Faults: "latency=0.2:1ms,truncate=0.4"},
				{Name: "calm", Requests: 8, BatchEvery: 2},
			},
		},
		{
			Name:        "breaker-trip",
			Description: "total blackout trips the breaker; recovery closes it legally",
			Seed:        13, Tasks: 8, Machines: 4, Distinct: 2,
			Heuristic: "max-min", MaxRetries: 1, Threshold: 3,
			Phases: []Phase{
				{Name: "healthy", Requests: 6},
				{Name: "blackout", Requests: 10, Faults: "reject=1.0:503"},
				{Name: "calm", Requests: 6},
			},
		},
		{
			Name:        "panic-isolation",
			Description: "deliberate worker panics interleaved with healthy traffic",
			Seed:        17, Tasks: 9, Machines: 3, Distinct: 3,
			Heuristic: "min-min", MaxRetries: 1,
			Phases: []Phase{
				{Name: "healthy", Requests: 6},
				{Name: "panic-storm", Requests: 12, PanicEvery: 3},
				{Name: "calm", Requests: 6},
			},
		},
	}
}

// ByName returns the builtin scenario with that name.
func ByName(name string) (Scenario, error) {
	var names []string
	for _, sc := range Builtin() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q (available: %s)", name, strings.Join(names, ", "))
}
