package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/etc"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// ClusterPhase is one segment of a cluster scenario timeline: membership
// changes applied at the phase boundary, then a request-counted workload
// under the phase's fault regime.
type ClusterPhase struct {
	Name string `json:"name"`
	// Requests is how many workload requests this phase sends through the
	// gateway, serially.
	Requests int `json:"requests"`
	// Kill and Revive name backend indices taken down / brought back at the
	// start of the phase, before any request. A killed backend's serve stack
	// survives with its cache warm; only its listener dies.
	Kill   []int `json:"kill,omitempty"`
	Revive []int `json:"revive,omitempty"`
	// Faults is an internal/faults spec wrapped around every backend for the
	// phase (each backend's injector draws from its own derived seed). Empty
	// means fault-free — and only fault-free phases have their routing
	// checked exactly, since injected faults legitimately push requests past
	// the first reachable backend.
	Faults string `json:"faults,omitempty"`
	// BatchEvery, when positive, sends every BatchEvery-th request as a
	// POST /v1/batch carrying all Distinct workload bodies as items — the
	// split-routing case: items fan out across backends and merge in order.
	BatchEvery int `json:"batch_every,omitempty"`
}

// ClusterScenario is a phased, seeded failure schedule for a gateway over
// N in-process backends. The verdict reuses Report: same invariant
// machinery, cluster-specific checks added.
type ClusterScenario struct {
	Name        string         `json:"name"`
	Description string         `json:"description"`
	Seed        uint64         `json:"seed"`
	Tasks       int            `json:"tasks"`
	Machines    int            `json:"machines"`
	Distinct    int            `json:"distinct"`
	Heuristic   string         `json:"heuristic"`
	Backends    int            `json:"backends"`
	MaxRetries  int            `json:"max_retries"`
	Phases      []ClusterPhase `json:"phases"`
}

func (sc ClusterScenario) validate() error {
	if sc.Name == "" {
		return errors.New("chaos: cluster scenario needs a name")
	}
	if sc.Tasks <= 0 || sc.Machines <= 0 || sc.Distinct <= 0 {
		return errors.New("chaos: tasks, machines and distinct must be positive")
	}
	if sc.Backends < 2 {
		return errors.New("chaos: a cluster scenario needs at least two backends")
	}
	if len(sc.Phases) == 0 {
		return errors.New("chaos: cluster scenario needs at least one phase")
	}
	for i, ph := range sc.Phases {
		if ph.Requests <= 0 {
			return fmt.Errorf("chaos: phase %d (%s) needs a positive request count", i, ph.Name)
		}
		if strings.Contains(ph.Faults, "seed=") {
			return fmt.Errorf("chaos: phase %d (%s) must not pin its own fault seed", i, ph.Name)
		}
		for _, idx := range append(append([]int(nil), ph.Kill...), ph.Revive...) {
			if idx < 0 || idx >= sc.Backends {
				return fmt.Errorf("chaos: phase %d (%s) names backend %d of %d", i, ph.Name, idx, sc.Backends)
			}
		}
	}
	return nil
}

// RunCluster replays one cluster scenario and returns its verdict report.
//
// The goldens come from a separate single-instance serve.Server, so the
// "responses" invariant IS the subsystem's headline property: every 200 the
// cluster returns — hit, miss, failed-over, merged from a batch fan-out —
// must be byte-identical to what a single instance computes, under fault
// injection and backend loss. On top of that the harness machine-checks
// routing stability (fault-free traffic serves on each key's rendezvous
// owner), minimal disruption (with backends down, each key serves on its
// first reachable preference — and only keys owned by dead backends move),
// gateway metrics conservation, post-storm recovery, breaker health, span
// conservation for the gateway's own trace stream, and goroutine hygiene.
func RunCluster(sc ClusterScenario) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if sc.Heuristic == "" {
		sc.Heuristic = "min-min"
	}

	baseline := runtime.NumGoroutine()

	// Deterministic workload, same construction as the single-instance
	// harness: Distinct bodies from the scenario seed.
	class := classByLabel("hihi-i")
	src := rng.New(sc.Seed)
	reqs := make([]serve.Request, sc.Distinct)
	bodies := make([][]byte, sc.Distinct)
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
	}
	batchItems := make([]serve.BatchItem, sc.Distinct)
	for i, rq := range reqs {
		batchItems[i] = serve.BatchItem{Endpoint: "iterate", Request: rq}
	}
	batchBody, err := json.Marshal(serve.BatchRequest{Items: batchItems})
	if err != nil {
		return nil, err
	}
	batchUsed := false
	for _, ph := range sc.Phases {
		if ph.BatchEvery > 0 {
			batchUsed = true
		}
	}

	// The reference: a single instance, driven directly. Its bytes are the
	// goldens every cluster 200 must match.
	ref := serve.NewServer(serve.Options{Workers: 2})
	goldens := make([][]byte, sc.Distinct)
	goldenItems := make([][]byte, sc.Distinct)
	for i, b := range bodies {
		rec := httptest.NewRecorder()
		ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/iterate", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("chaos: golden request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		goldens[i] = append([]byte(nil), rec.Body.Bytes()...)
		goldenItems[i] = bytes.TrimSuffix(goldens[i], []byte("\n"))
	}

	// The cluster under test: N live backends plus the gateway. Keep-alives
	// stay off end to end (see Run) so every arrival at an injector is one
	// the gateway sent, and a killed backend leaves no reusable connections.
	local, err := cluster.StartLocal(sc.Backends, serve.Options{Workers: 2, QueueDepth: 256})
	if err != nil {
		return nil, err
	}
	defer local.Close()
	tr := &http.Transport{DisableKeepAlives: true}
	reg := obs.NewMetrics()
	collector := &obs.Collector{}
	gwSpans := &obs.Collector{}
	gw, err := cluster.NewGateway(cluster.Options{
		Backends: local.Backends(),
		Client: client.Options{
			MaxRetries:  sc.MaxRetries,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			Timeout:     10 * time.Second,
			Seed:        sc.Seed,
			// Effectively untrippable: breaker dynamics are the single-
			// instance harness's subject; here every backend walk must be
			// driven by reachability alone so routing stays exactly
			// predictable.
			BreakerThreshold: 1 << 20,
			BreakerCooldown:  time.Nanosecond,
			HTTPClient:       &http.Client{Transport: tr},
		},
		Metrics:  reg,
		Observer: collector,
		Tracer:   obs.NewTracer(gwSpans),
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Scenario: sc.Name, Description: sc.Description, Seed: sc.Seed}
	var violations []string
	violate := func(format string, args ...any) {
		if len(violations) < 16 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	// down tracks the membership the routing check expects: in fault-free
	// phases every routed unit must serve on the first member of its
	// rendezvous ranking not in down.
	down := map[string]bool{}
	evCursor := 0
	routesChecked := 0
	var routeViolations []string
	checkRoutes := func(where string) {
		events := collector.Events()
		for ; evCursor < len(events); evCursor++ {
			rt, ok := events[evCursor].(obs.GatewayRoute)
			if !ok {
				continue
			}
			kh, err := strconv.ParseUint(rt.KeyHash, 16, 64)
			if err != nil {
				if len(routeViolations) < 16 {
					routeViolations = append(routeViolations, fmt.Sprintf("%s: unparseable key hash %q", where, rt.KeyHash))
				}
				continue
			}
			rank := gw.Router().RankHash(kh)
			want := ""
			for _, name := range rank {
				if !down[name] {
					want = name
					break
				}
			}
			routesChecked++
			if rt.Primary != rank[0] {
				if len(routeViolations) < 16 {
					routeViolations = append(routeViolations, fmt.Sprintf("%s: key %s primary %s, rendezvous owner %s", where, rt.KeyHash, rt.Primary, rank[0]))
				}
				continue
			}
			if rt.Served != want {
				if len(routeViolations) < 16 {
					routeViolations = append(routeViolations, fmt.Sprintf("%s: key %s served by %q, want first reachable %q", where, rt.KeyHash, rt.Served, want))
				}
			}
		}
	}
	skipRoutes := func() { evCursor = len(collector.Events()) }

	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	next := 0
	for pi, ph := range sc.Phases {
		for _, idx := range ph.Kill {
			local.Kill(idx)
			down[fmt.Sprintf("backend-%d", idx)] = true
		}
		for _, idx := range ph.Revive {
			if err := local.Revive(idx); err != nil {
				return nil, fmt.Errorf("chaos: phase %d (%s): revive %d: %w", pi, ph.Name, idx, err)
			}
			delete(down, fmt.Sprintf("backend-%d", idx))
		}
		if ph.Faults != "" {
			for bi := 0; bi < sc.Backends; bi++ {
				// Each (phase, backend) pair gets its own derived injector
				// seed, so every backend's fault decision stream is fixed.
				spec, err := faults.Parse(fmt.Sprintf("seed=%d,%s", sc.Seed+uint64(pi)*64+uint64(bi)+1, ph.Faults))
				if err != nil {
					return nil, fmt.Errorf("chaos: phase %d (%s): %w", pi, ph.Name, err)
				}
				local.SetHandler(bi, faults.New(spec, local.Server(bi).Handler(), reg))
			}
		} else {
			for bi := 0; bi < sc.Backends; bi++ {
				local.SetHandler(bi, nil)
			}
		}

		pr := PhaseReport{Name: ph.Name, Requests: ph.Requests, Errors: map[string]int{}}
		for i := 0; i < ph.Requests; i++ {
			if ph.BatchEvery > 0 && (i+1)%ph.BatchEvery == 0 {
				pr.BatchPosts++
				rec := post("/v1/batch", batchBody)
				if rec.Code == http.StatusOK {
					if detail := tallyBatchItems(rec.Body.Bytes(), goldenItems, &pr); detail == "" {
						pr.OK++
					} else {
						pr.Mismatch++
						violate("phase %s request %d: %s", ph.Name, i, detail)
					}
				} else {
					code := envelopeCode(rec.Body.Bytes())
					pr.Errors[fmt.Sprintf("%d:%s", rec.Code, code)]++
					if !documentedCodes[code] {
						violate("phase %s request %d: undocumented error code %q (status %d)", ph.Name, i, code, rec.Code)
					}
				}
			} else {
				k := next % sc.Distinct
				next++
				rec := post("/v1/iterate", bodies[k])
				switch {
				case rec.Code == http.StatusOK:
					if bytes.Equal(rec.Body.Bytes(), goldens[k]) {
						pr.OK++
					} else {
						pr.Mismatch++
						violate("phase %s request %d: 200 body differs from singleton golden %d", ph.Name, i, k)
					}
				default:
					code := envelopeCode(rec.Body.Bytes())
					pr.Errors[fmt.Sprintf("%d:%s", rec.Code, code)]++
					if !documentedCodes[code] {
						violate("phase %s request %d: undocumented error code %q (status %d)", ph.Name, i, code, rec.Code)
					}
				}
			}
			if ph.Faults == "" {
				checkRoutes("phase " + ph.Name)
			} else {
				// Injected faults legitimately push requests past reachable
				// backends; exact routing is only asserted fault-free.
				skipRoutes()
			}
		}
		rep.Phases = append(rep.Phases, pr)
	}

	// Recovery: full membership restored, faults off. Every distinct body
	// must come back byte-identical, served by its rendezvous owner — a
	// revived backend rejoins with its cache warm and its keys return home.
	for bi := 0; bi < sc.Backends; bi++ {
		if !local.Alive(bi) {
			if err := local.Revive(bi); err != nil {
				return nil, fmt.Errorf("chaos: recovery revive %d: %w", bi, err)
			}
		}
		local.SetHandler(bi, nil)
	}
	down = map[string]bool{}
	for i, b := range bodies {
		rec := post("/v1/iterate", b)
		if rec.Code != http.StatusOK {
			violate("recovery request %d: status %d (%s)", i, rec.Code, envelopeCode(rec.Body.Bytes()))
			continue
		}
		if !bytes.Equal(rec.Body.Bytes(), goldens[i]) {
			violate("recovery request %d: body differs from singleton golden", i)
			continue
		}
		rep.Recovered++
	}
	if batchUsed {
		rec := post("/v1/batch", batchBody)
		if rec.Code != http.StatusOK {
			violate("recovery batch: status %d (%s)", rec.Code, envelopeCode(rec.Body.Bytes()))
		} else {
			var tally PhaseReport
			if detail := tallyBatchItems(rec.Body.Bytes(), goldenItems, &tally); detail != "" {
				violate("recovery batch: %s", detail)
			} else if tally.BatchItemsOK != sc.Distinct {
				violate("recovery batch: %d of %d items byte-identical", tally.BatchItemsOK, sc.Distinct)
			}
		}
	}
	checkRoutes("recovery")

	// Quiesce the cluster before reading final state.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Drain(sctx); err != nil {
		return nil, fmt.Errorf("chaos: gateway drain: %w", err)
	}
	if err := local.Close(); err != nil {
		return nil, fmt.Errorf("chaos: cluster close: %w", err)
	}
	refCtx, refCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer refCancel()
	if err := ref.Drain(refCtx); err != nil {
		return nil, fmt.Errorf("chaos: reference drain: %w", err)
	}
	tr.CloseIdleConnections()

	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	for _, e := range collector.Events() {
		if bt, ok := e.(obs.BreakerTransition); ok {
			rep.BreakerTransitions = append(rep.BreakerTransitions, bt.From+"->"+bt.To)
		}
	}

	check := func(name string, ok bool, detail string) {
		rep.Invariants = append(rep.Invariants, InvariantResult{Name: name, OK: ok, Detail: detail})
	}

	check("responses", len(violations) == 0, responsesDetail(violations))
	routeDetail := fmt.Sprintf("%d routed units served on their first reachable preference", routesChecked)
	if len(routeViolations) > 0 {
		routeDetail = strings.Join(routeViolations, "; ")
	}
	check("routing", len(routeViolations) == 0 && routesChecked > 0, routeDetail)
	total, sum := counters["gateway.requests_total"],
		counters["gateway.responses_2xx"]+counters["gateway.responses_4xx"]+counters["gateway.responses_5xx"]
	check("metrics_conservation", total == sum,
		fmt.Sprintf("gateway.requests_total=%d, 2xx+4xx+5xx=%d", total, sum))
	check("recovery", rep.Recovered == sc.Distinct,
		fmt.Sprintf("%d of %d fault-free replays byte-identical", rep.Recovered, sc.Distinct))
	states := gw.BreakerStates()
	var openBackends []string
	for name, st := range states {
		if st != "closed" {
			openBackends = append(openBackends, name+"="+st)
		}
	}
	sort.Strings(openBackends)
	breakerDetail := fmt.Sprintf("all %d backend breakers closed", len(states))
	if len(openBackends) > 0 {
		breakerDetail = strings.Join(openBackends, " ")
	}
	check("breakers_closed", len(openBackends) == 0, breakerDetail)
	gwSum := obs.SummarizeSpans(spansOf(gwSpans))
	spanDetail := fmt.Sprintf("gateway %d roots for %d arrivals", gwSum.Roots, total)
	if !gwSum.WellFormed() {
		spanDetail += "; malformed: " + strings.Join(gwSum.Malformed, "; ")
	}
	check("span_conservation", gwSum.WellFormed() && int64(gwSum.Roots) == total, spanDetail)
	leaked, goroutines := goroutineLeak(baseline)
	goroutineDetail := "returned to baseline within slack"
	if leaked {
		goroutineDetail = fmt.Sprintf("leak: %d goroutines vs baseline %d", goroutines, baseline)
	}
	check("goroutines", !leaked, goroutineDetail)

	rep.settle()
	return rep, nil
}

// BuiltinCluster returns the stock cluster scenarios. Names are stable:
// scripts and selfchecks refer to them.
func BuiltinCluster() []ClusterScenario {
	return []ClusterScenario{
		{
			Name:        "backend-kill",
			Description: "a backend dies mid-storm; its keys fail over, everyone else's stay put, bytes never change",
			Seed:        23, Tasks: 10, Machines: 4, Distinct: 4,
			Heuristic: "min-min", Backends: 3, MaxRetries: 1,
			Phases: []ClusterPhase{
				{Name: "healthy", Requests: 8},
				{Name: "kill", Requests: 12, Kill: []int{1}},
				{Name: "storm-over-loss", Requests: 12, Faults: "latency=0.2:1ms,reject=0.3:503"},
				{Name: "revive", Requests: 8, Revive: []int{1}},
			},
		},
		{
			Name:        "backend-rejoin",
			Description: "kill and revive under fault-free traffic; keys leave exactly once and return exactly once",
			Seed:        29, Tasks: 9, Machines: 3, Distinct: 6,
			Heuristic: "sufferage", Backends: 3, MaxRetries: 1,
			Phases: []ClusterPhase{
				{Name: "healthy", Requests: 6},
				{Name: "down", Requests: 12, Kill: []int{0}},
				{Name: "rejoin", Requests: 12, Revive: []int{0}},
			},
		},
		{
			Name:        "split-routing-storm",
			Description: "batch fan-outs across four backends under truncation, drop and a mid-storm kill; merged envelopes stay byte-identical",
			Seed:        31, Tasks: 10, Machines: 4, Distinct: 4,
			Heuristic: "min-min", Backends: 4, MaxRetries: 2,
			Phases: []ClusterPhase{
				{Name: "healthy", Requests: 8, BatchEvery: 2},
				{Name: "storm", Requests: 12, BatchEvery: 2, Faults: "latency=0.2:1ms,truncate=0.4"},
				{Name: "kill-under-storm", Requests: 10, BatchEvery: 2, Kill: []int{2}, Faults: "drop=0.25"},
				{Name: "calm", Requests: 8, BatchEvery: 2, Revive: []int{2}},
			},
		},
	}
}

// ClusterByName returns the builtin cluster scenario with that name.
func ClusterByName(name string) (ClusterScenario, error) {
	var names []string
	for _, sc := range BuiltinCluster() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return ClusterScenario{}, fmt.Errorf("chaos: unknown cluster scenario %q (available: %s)", name, strings.Join(names, ", "))
}
