package chaos

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestBuiltinScenariosPass replays every stock scenario and requires a
// clean verdict: all invariants ok, report marked Pass.
func TestBuiltinScenariosPass(t *testing.T) {
	for _, sc := range Builtin() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := Run(sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, inv := range rep.Invariants {
				if !inv.OK {
					t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
				}
			}
			if !rep.Pass {
				t.Fatal("report not marked Pass")
			}
		})
	}
}

// TestSpanConservationAcrossSeeds replays every builtin scenario under
// several seed overrides and requires the span_conservation invariant (and
// the whole verdict) to hold for each: one well-formed span tree per
// request on both sides of the wire, whatever the fault schedule draws.
func TestSpanConservationAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay is the long leg of the chaos suite")
	}
	for _, seed := range []uint64{101, 202, 303} {
		for _, sc := range Builtin() {
			sc := sc
			sc.Seed = seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.Name, seed), func(t *testing.T) {
				rep, err := Run(sc)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				found := false
				for _, inv := range rep.Invariants {
					if inv.Name == "span_conservation" {
						found = true
						if !inv.OK {
							t.Errorf("span_conservation violated: %s", inv.Detail)
						}
					}
				}
				if !found {
					t.Fatal("report lacks the span_conservation invariant")
				}
				if !rep.Pass {
					t.Fatal("report not marked Pass")
				}
			})
		}
	}
}

// TestReportDeterministic pins the harness's core promise: the same
// scenario and seed produce a byte-identical verdict report.
func TestReportDeterministic(t *testing.T) {
	sc, err := ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, b)
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("reports differ across identical runs:\n%s\nvs\n%s", runs[0], runs[1])
	}
}

// TestFaultProbabilityChangesReport pins sensitivity: flipping an injected
// fault probability changes the report (deterministically — covered by the
// determinism test above).
func TestFaultProbabilityChangesReport(t *testing.T) {
	sc, err := ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Phases[2].Faults = "reject=0.9:503:1"
	bumped, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := base.JSON()
	b, _ := bumped.JSON()
	if bytes.Equal(a, b) {
		t.Fatal("report unchanged after flipping reject probability 0.5 -> 0.9")
	}
	if !bumped.Pass {
		t.Fatal("bumped scenario should still pass (more rejections, same invariants)")
	}
}

// TestFaultStormsRecoverEveryRequest pins that injected rejects, drops and
// truncations cost the resilient client retries, never a request: in the
// storm and truncate-flood scenarios every request of every phase comes
// back 200 and byte-identical to its golden.
func TestFaultStormsRecoverEveryRequest(t *testing.T) {
	for _, name := range []string{"storm", "truncate-flood"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range rep.Phases {
			if ph.OK != ph.Requests {
				t.Errorf("%s phase %s: %d of %d requests recovered byte-identical: %+v", name, ph.Name, ph.OK, ph.Requests, ph)
			}
		}
	}
}

// TestBreakerTripScenarioObservesTransitions pins that the breaker-trip
// scenario actually exercises the breaker (a scenario that never trips it
// would vacuously pass breaker_legal).
func TestBreakerTripScenarioObservesTransitions(t *testing.T) {
	sc, err := ByName("breaker-trip")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BreakerTransitions) == 0 {
		t.Fatal("breaker-trip scenario produced no breaker transitions")
	}
	if rep.BreakerTransitions[0] != "closed->open" {
		t.Fatalf("first transition %q, want closed->open", rep.BreakerTransitions[0])
	}
	if last := rep.BreakerTransitions[len(rep.BreakerTransitions)-1]; last != "half-open->closed" {
		t.Fatalf("last transition %q, want half-open->closed", last)
	}
}

// TestPanicScenarioAccountsPanics pins that panic-isolation schedules real
// panics and the serve layer both counts and survives them.
func TestPanicScenarioAccountsPanics(t *testing.T) {
	sc, err := ByName("panic-isolation")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Panics == 0 {
		t.Fatal("panic-isolation scenario recorded no panics")
	}
	found := false
	for _, ph := range rep.Phases {
		if ph.Errors["500:panic"] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no 500:panic envelopes observed: %+v", rep.Phases)
	}
	if !rep.Pass {
		t.Fatal("panic-isolation should pass")
	}
}

// invariant returns the named invariant of a report.
func invariant(t *testing.T, rep *Report, name string) InvariantResult {
	t.Helper()
	for _, inv := range rep.Invariants {
		if inv.Name == name {
			return inv
		}
	}
	t.Fatalf("report lacks the %s invariant", name)
	return InvariantResult{}
}

// TestFaultsExercisedCatchesSilentFaults is the mutation check for
// faults_exercised: a storm whose configured faults never fire must fail,
// not pass vacuously.
func TestFaultsExercisedCatchesSilentFaults(t *testing.T) {
	// End to end: the latency-drop phase keeps its drop fault configured,
	// at a probability too small to fire in 24 requests.
	sc, err := ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	sc.Phases[1].Faults = "latency=0.3:1ms,drop=0.000001"
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if inv := invariant(t, rep, "faults_exercised"); inv.OK || !strings.Contains(inv.Detail, "drop=0") {
		t.Fatalf("faults_exercised = %+v, want a violation naming drop=0", inv)
	}
	if err := rep.Err(); rep.Pass || err == nil || !strings.Contains(err.Error(), "faults_exercised") {
		t.Fatalf("Pass=%v Err=%v, want a failed report naming faults_exercised", rep.Pass, err)
	}

	// Unit level: the storm's specs against counters from a run in which
	// the latency-drop phase's injector was removed, or no retry was taken.
	var specs []faults.Spec
	for _, ph := range Builtin()[0].Phases {
		if ph.Faults != "" {
			spec, err := faults.Parse(ph.Faults)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec)
		}
	}
	fired := map[string]int64{"faults.latency_total": 12, "faults.reject_total": 9, "faults.drop_total": 5, "client.retries_total": 14}
	if _, ok, detail := faultsExercised(specs, 8, fired); !ok {
		t.Fatalf("every kind fired, yet violated: %s", detail)
	}
	noPhase := map[string]int64{"faults.reject_total": 9, "client.retries_total": 9}
	if _, ok, _ := faultsExercised(specs, 8, noPhase); ok {
		t.Fatal("latency and drop never fired, yet faults_exercised holds")
	}
	noRetry := map[string]int64{"faults.latency_total": 12, "faults.reject_total": 9, "faults.drop_total": 5}
	if _, ok, _ := faultsExercised(specs, 8, noRetry); ok {
		t.Fatal("failing faults fired without a client retry, yet faults_exercised holds")
	}
	if _, ok, _ := faultsExercised(specs, -1, noRetry); !ok {
		t.Fatal("a client with retries disabled cannot retry; faults_exercised must not demand it")
	}
	if _, ok, _ := faultsExercised(nil, 8, nil); !ok {
		t.Fatal("a fault-free scenario violates faults_exercised")
	}
}

// TestPanicsAccountedExact is the mutation check for panics_accounted: the
// panic counter, the panic_recovered events and the status-500 request_done
// events must agree exactly, and be non-zero exactly when panics were
// scheduled.
func TestPanicsAccountedExact(t *testing.T) {
	recovered := obs.PanicRecovered{Endpoint: "/v1/iterate"}
	done500 := obs.RequestDone{Endpoint: "/v1/iterate", Status: http.StatusInternalServerError}
	done200 := obs.RequestDone{Endpoint: "/v1/iterate", Status: http.StatusOK}
	for _, tc := range []struct {
		name      string
		panics    int64
		events    []obs.Event
		scheduled int
		want      bool
	}{
		{"retried panic counts twice", 2, []obs.Event{recovered, done500, recovered, done500, done200}, 1, true},
		{"no panics", 0, []obs.Event{done200}, 0, true},
		{"panic events dropped", 2, []obs.Event{done500, done500, done200}, 1, false},
		{"500 records dropped", 2, []obs.Event{recovered, recovered, done200}, 1, false},
		{"counter drifts", 1, []obs.Event{recovered, done500, recovered, done500}, 1, false},
		{"scheduled but none fired", 0, []obs.Event{done200}, 1, false},
		{"fired but none scheduled", 1, []obs.Event{recovered, done500}, 0, false},
	} {
		if _, ok, detail := panicsAccounted(tc.panics, tc.events, tc.scheduled); ok != tc.want {
			t.Errorf("%s: ok=%v, want %v (%s)", tc.name, ok, tc.want, detail)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "available") {
		t.Fatalf("ByName(nope) error %v, want available-list error", err)
	}
	bad := []Scenario{
		{},
		{Name: "x", Seed: PanicSeed, Tasks: 1, Machines: 1, Distinct: 1, Phases: []Phase{{Name: "p", Requests: 1}}},
		{Name: "x", Tasks: 1, Machines: 1, Distinct: 1},
		{Name: "x", Tasks: 1, Machines: 1, Distinct: 1, Phases: []Phase{{Name: "p"}}},
		{Name: "x", Tasks: 1, Machines: 1, Distinct: 1, Phases: []Phase{{Name: "p", Requests: 1, Faults: "seed=3,drop=0.1"}}},
	}
	for i, sc := range bad {
		if _, err := Run(sc); err == nil {
			t.Fatalf("bad scenario %d accepted", i)
		}
	}
}
