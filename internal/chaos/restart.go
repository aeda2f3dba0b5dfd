package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/etc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
)

// RestartScenario is a crash/restart schedule for a serve stack with a disk
// result tier (internal/store): a warm lifetime computes and persists a
// workload, the process "dies" (drain, close, torn bytes appended to the
// newest segment — a write cut mid-record), and a second lifetime reopens
// the same directory. The verdict machine-checks that a restart is not a
// miss storm: every previously computed body is served from disk with the
// exact bytes of the first lifetime, then promoted to a memory hit.
type RestartScenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Seed        uint64 `json:"seed"`
	Tasks       int    `json:"tasks"`
	Machines    int    `json:"machines"`
	Distinct    int    `json:"distinct"`
	Heuristic   string `json:"heuristic"`
	// TornTailBytes is how much garbage the simulated crash appends to the
	// newest segment between lifetimes; recovery must truncate exactly this
	// many bytes and keep every whole record.
	TornTailBytes int `json:"torn_tail_bytes"`
}

func (sc RestartScenario) validate() error {
	if sc.Name == "" {
		return errors.New("chaos: restart scenario needs a name")
	}
	if sc.Seed == PanicSeed {
		return fmt.Errorf("chaos: scenario seed %#x collides with the panic sentinel", sc.Seed)
	}
	if sc.Tasks <= 0 || sc.Machines <= 0 || sc.Distinct <= 0 {
		return errors.New("chaos: tasks, machines and distinct must be positive")
	}
	if sc.TornTailBytes < 0 {
		return errors.New("chaos: torn tail bytes must be non-negative")
	}
	return nil
}

// RunRestart replays one restart scenario and returns its verdict report.
// The store directory is a fresh temp dir, named nowhere in the report;
// same scenario, same report bytes.
func RunRestart(sc RestartScenario) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if sc.Heuristic == "" {
		sc.Heuristic = "min-min"
	}

	baseline := runtime.NumGoroutine()
	dir, err := os.MkdirTemp("", "schedchaos-restart-*")
	if err != nil {
		return nil, fmt.Errorf("chaos: store dir: %w", err)
	}
	defer os.RemoveAll(dir)

	// Deterministic workload, same construction as the other harnesses.
	class := classByLabel("hihi-i")
	src := rng.New(sc.Seed)
	bodies := make([][]byte, sc.Distinct)
	for i := range bodies {
		m, err := etc.GenerateClass(class, sc.Tasks, sc.Machines, src)
		if err != nil {
			return nil, fmt.Errorf("chaos: generating workload: %w", err)
		}
		bodies[i], err = json.Marshal(serve.Request{ETC: m.Values(), Heuristic: sc.Heuristic, Ties: "det", Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{Scenario: sc.Name, Description: sc.Description, Seed: sc.Seed}
	var violations []string
	violate := func(format string, args ...any) {
		if len(violations) < 16 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	post := func(srv *serve.Server, body []byte) (*httptest.ResponseRecorder, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/iterate", bytes.NewReader(body)))
		return rec, rec.Header().Get("X-Schedd-Cache")
	}

	// Lifetime 1: compute every body (miss, then memory hit), drain so the
	// write-behind queue flushes into the store, close. The 200 bodies are
	// the goldens the second lifetime must reproduce from disk.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("chaos: open store: %w", err)
	}
	srv := serve.NewServer(serve.Options{Workers: 2, Store: st})
	warm := PhaseReport{Name: "warm", Requests: 2 * sc.Distinct, Errors: map[string]int{}}
	goldens := make([][]byte, sc.Distinct)
	for i, b := range bodies {
		rec, cache := post(srv, b)
		if rec.Code != http.StatusOK {
			warm.Errors[fmt.Sprintf("%d:%s", rec.Code, envelopeCode(rec.Body.Bytes()))]++
			violate("warm request %d: status %d", i, rec.Code)
			continue
		}
		if cache != "miss" {
			violate("warm request %d: cache %q, want miss (first sight)", i, cache)
		}
		warm.OK++
		goldens[i] = append([]byte(nil), rec.Body.Bytes()...)
	}
	for i, b := range bodies {
		rec, cache := post(srv, b)
		switch {
		case rec.Code != http.StatusOK:
			warm.Errors[fmt.Sprintf("%d:%s", rec.Code, envelopeCode(rec.Body.Bytes()))]++
			violate("warm replay %d: status %d", i, rec.Code)
		case !bytes.Equal(rec.Body.Bytes(), goldens[i]):
			warm.Mismatch++
			violate("warm replay %d: body differs from its own first response", i)
		default:
			warm.OK++
			if cache != "hit" {
				violate("warm replay %d: cache %q, want memory hit", i, cache)
			}
		}
	}
	rep.Phases = append(rep.Phases, warm)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	drainErr := srv.Drain(ctx)
	cancel()
	if drainErr != nil {
		return nil, fmt.Errorf("chaos: first-lifetime drain: %w", drainErr)
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("chaos: first-lifetime store close: %w", err)
	}

	// The crash: a torn tail on the newest segment, as if the process died
	// mid-append. Recovery must truncate it — never serve it.
	if sc.TornTailBytes > 0 {
		if err := store.InjectTornTail(dir, sc.TornTailBytes); err != nil {
			return nil, fmt.Errorf("chaos: torn tail: %w", err)
		}
	}

	// Lifetime 2: reopen, fresh server, empty memory cache. Every body must
	// come back from disk byte-identical, then promote to a memory hit.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("chaos: reopen store: %w", err)
	}
	recovered := st2.Stats()
	reg := obs.NewMetrics()
	srv2 := serve.NewServer(serve.Options{Workers: 2, Store: st2, Metrics: reg})
	restart := PhaseReport{Name: "restart", Requests: 2 * sc.Distinct, Errors: map[string]int{}}
	diskServed := 0
	for i, b := range bodies {
		rec, cache := post(srv2, b)
		switch {
		case rec.Code != http.StatusOK:
			restart.Errors[fmt.Sprintf("%d:%s", rec.Code, envelopeCode(rec.Body.Bytes()))]++
			violate("restart request %d: status %d", i, rec.Code)
		case !bytes.Equal(rec.Body.Bytes(), goldens[i]):
			restart.Mismatch++
			violate("restart request %d: body differs from the first lifetime's", i)
		default:
			restart.OK++
			rep.Recovered++
			if cache == "disk" {
				diskServed++
			} else {
				violate("restart request %d: cache %q, want disk (restart must not be a miss storm)", i, cache)
			}
		}
	}
	promoted := 0
	for i, b := range bodies {
		rec, cache := post(srv2, b)
		switch {
		case rec.Code != http.StatusOK:
			restart.Errors[fmt.Sprintf("%d:%s", rec.Code, envelopeCode(rec.Body.Bytes()))]++
			violate("restart replay %d: status %d", i, rec.Code)
		case !bytes.Equal(rec.Body.Bytes(), goldens[i]):
			restart.Mismatch++
			violate("restart replay %d: body differs from the first lifetime's", i)
		default:
			restart.OK++
			if cache == "hit" {
				promoted++
			} else {
				violate("restart replay %d: cache %q, want memory hit (disk hits promote into the LRU)", i, cache)
			}
		}
	}
	rep.Phases = append(rep.Phases, restart)

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	drainErr = srv2.Drain(ctx2)
	cancel2()
	if drainErr != nil {
		return nil, fmt.Errorf("chaos: second-lifetime drain: %w", drainErr)
	}
	if err := st2.Close(); err != nil {
		return nil, fmt.Errorf("chaos: second-lifetime store close: %w", err)
	}

	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	gauges := map[string]float64{}
	for _, g := range reg.Snapshot().Gauges {
		gauges[g.Name] = g.Value
	}

	check := func(name string, ok bool, detail string) {
		rep.Invariants = append(rep.Invariants, InvariantResult{Name: name, OK: ok, Detail: detail})
	}

	check("responses", len(violations) == 0, responsesDetail(violations))
	check("disk_recovery", diskServed == sc.Distinct && counters["serve.disk_hits"] == int64(sc.Distinct),
		fmt.Sprintf("%d of %d post-restart requests served from disk (serve.disk_hits=%d)",
			diskServed, sc.Distinct, counters["serve.disk_hits"]))
	check("promotion", promoted == sc.Distinct,
		fmt.Sprintf("%d of %d disk hits promoted to memory hits", promoted, sc.Distinct))
	check("torn_tail_truncated",
		recovered.RecoveredBytes == int64(sc.TornTailBytes) && recovered.Keys == sc.Distinct,
		fmt.Sprintf("recovery truncated %d bytes (injected %d), %d of %d keys survived",
			recovered.RecoveredBytes, sc.TornTailBytes, recovered.Keys, sc.Distinct))
	check("recovery", rep.Recovered == sc.Distinct,
		fmt.Sprintf("%d of %d post-restart replays byte-identical", rep.Recovered, sc.Distinct))
	check("quiesced", gauges["serve.queue_depth"] == 0 && gauges["serve.inflight"] == 0,
		fmt.Sprintf("queue_depth=%g inflight=%g", gauges["serve.queue_depth"], gauges["serve.inflight"]))
	leaked, goroutines := goroutineLeak(baseline)
	goroutineDetail := "returned to baseline within slack"
	if leaked {
		goroutineDetail = fmt.Sprintf("leak: %d goroutines vs baseline %d", goroutines, baseline)
	}
	check("goroutines", !leaked, goroutineDetail)

	rep.settle()
	return rep, nil
}

// BuiltinRestart returns the stock restart scenarios. Names are stable:
// scripts and selfchecks refer to them.
func BuiltinRestart() []RestartScenario {
	return []RestartScenario{
		{
			Name:          "restart-recovery",
			Description:   "kill and restart with a disk result tier and a torn segment tail; every warm body returns from disk byte-identical, then promotes",
			Seed:          37,
			Tasks:         10,
			Machines:      4,
			Distinct:      4,
			Heuristic:     "min-min",
			TornTailBytes: 41,
		},
	}
}

// RestartByName returns the builtin restart scenario with that name.
func RestartByName(name string) (RestartScenario, error) {
	var names []string
	for _, sc := range BuiltinRestart() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	return RestartScenario{}, fmt.Errorf("chaos: unknown restart scenario %q (available: %s)", name, strings.Join(names, ", "))
}
