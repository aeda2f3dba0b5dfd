package hcsched_test

import (
	"fmt"

	hcsched "repro"
)

// ExampleRunChaos replays a builtin chaos scenario — a total 503 blackout
// that trips the client's circuit breaker, then clears — and prints its
// machine-checked verdict. Same scenario and seed, same report bytes.
func ExampleRunChaos() {
	sc, err := hcsched.ChaosScenarioByName("breaker-trip")
	if err != nil {
		panic(err)
	}
	rep, err := hcsched.RunChaos(sc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: pass=%v invariants=%d recovered=%d\n",
		rep.Scenario, rep.Pass, len(rep.Invariants), rep.Recovered)
	fmt.Println("first transition:", rep.BreakerTransitions[0])
	// Output:
	// breaker-trip: pass=true invariants=10 recovered=2
	// first transition: closed->open
}
