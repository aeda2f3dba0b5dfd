package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestCorpusDeterministicInSeed(t *testing.T) {
	a, err := newCorpus(7, "w", 16, 4).bodies(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newCorpus(7, "w", 16, 4).bodies(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	other, err := newCorpus(8, "w", 16, 4).bodies(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between two syntheses with one seed", i)
		}
		if bytes.Equal(a[i], other[i]) {
			t.Fatalf("body %d is the same under seeds 7 and 8", i)
		}
		if seen[string(a[i])] {
			t.Fatalf("body %d repeats an earlier body", i)
		}
		seen[string(a[i])] = true
		var rq serve.Request
		if err := json.Unmarshal(a[i], &rq); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if len(rq.ETC) != 16 || len(rq.ETC[0]) != 4 || rq.Heuristic != heuristicNames[(i/12)%4] {
			t.Fatalf("body %d: %d×%d %q", i, len(rq.ETC), len(rq.ETC[0]), rq.Heuristic)
		}
	}
	// The streamed form is the same bytes.
	buf, err := newCorpus(7, "w", 16, 4).appendBody([]byte("junk"), 3)
	if err != nil || !bytes.Equal(buf[4:], a[3]) {
		t.Fatalf("appendBody differs from bodies: %v", err)
	}
}

func TestQuietSelectsLeastStolenWindows(t *testing.T) {
	// 2×quietShare windows. steal[w] is the share of window w the host
	// stole, in percent; window w's two requests take w+1 ms.
	n := 2 * quietShare
	window := tickEvery
	phase := func(steal map[int]uint64, paused int) phaseResult {
		p := phaseResult{dur: time.Duration(n) * window}
		if paused >= 0 {
			// The heap pause fills window paused; the deadline moves by as
			// much.
			p.dur -= window
			p.heap = heapReading{from: time.Duration(paused) * window, to: time.Duration(paused+1) * window, taken: true}
		}
		var tk tick
		p.ticks = append(p.ticks, tk)
		for w := 0; w < n; w++ {
			s, ok := steal[w]
			if !ok {
				s = 50
			}
			start := tk.at
			tk.at += tickEvery
			tk.cpu += 10 * time.Millisecond
			tk.all += 100
			tk.steal += s
			p.ticks = append(p.ticks, tk)
			for _, off := range []time.Duration{tickEvery / 4, tickEvery / 2} {
				p.endNS = append(p.endNS, int64(start+off))
				p.latMS = append(p.latMS, float64(w+1))
			}
		}
		// A steal-free tick after the deadline never counts.
		p.ticks = append(p.ticks, tick{at: tk.at + tickEvery, cpu: tk.cpu, steal: tk.steal, all: tk.all + 100})
		return p
	}
	for _, tc := range []struct {
		steal  map[int]uint64
		paused int
		want   []float64
		pct    float64
	}{
		// Fewer steal-free windows than the quiet share: the two quietest.
		{map[int]uint64{3: 0, 5: 10}, -1, []float64{4, 4, 6, 6}, 5},
		// More: every steal-free window.
		{map[int]uint64{1: 0, 2: 0, 4: 0, 5: 10}, -1, []float64{2, 2, 3, 3, 5, 5}, 0},
		// The heap pause's window never counts.
		{map[int]uint64{1: 0, 2: 0, 4: 0, 5: 10}, 2, []float64{2, 2, 5, 5}, 0},
	} {
		q := phase(tc.steal, tc.paused).quiet()
		kept := len(tc.want) / 2
		span := time.Duration(kept) * window
		if q.ops != len(tc.want) || fmt.Sprint(q.latMS) != fmt.Sprint(tc.want) {
			t.Errorf("steal %v: kept requests %v, want %v", tc.steal, q.latMS, tc.want)
		}
		if math.Abs(q.stealPct-tc.pct) > 1e-9 || math.Abs(q.seconds-span.Seconds()) > 1e-9 || q.cpu != span/10 {
			t.Errorf("steal %v: %v%% steal, %vs, cpu %v", tc.steal, q.stealPct, q.seconds, q.cpu)
		}
	}
}

func TestQuietSetups(t *testing.T) {
	ss := func(steal ...float64) []setupSample {
		var out []setupSample
		for i, s := range steal {
			out = append(out, setupSample{secs: float64(i + 1), steal: s})
		}
		return out
	}
	for _, tc := range []struct {
		in   []setupSample
		want []float64
	}{
		// Fewer steal-free set-ups than a third: the least stolen third.
		{ss(0.3, 0, 0.1, 0.2, 0.4, 0.5), []float64{2, 3}},
		// More: every steal-free set-up.
		{ss(0, 0.2, 0, 0.1, 0, 0), []float64{1, 3, 5, 6}},
	} {
		if got := quietSetups(tc.in); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("quietSetups(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestHeapGateReadsOnceWithNoRequestInFlight(t *testing.T) {
	for _, quitter := range []bool{false, true} {
		var completed, inside atomic.Int64
		reads := 0
		gate := newHeapGate(100, 2, func() {
			reads++
			if n := inside.Load(); n != 0 {
				t.Errorf("read with %d requests in flight", n)
			}
			if n := completed.Load(); n < 100 {
				t.Errorf("read after %d requests, want at least 100", n)
			}
		})
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer gate.leave()
				for i := 0; i < 200; i++ {
					if quitter && c == 1 && i == 10 {
						return // stops early; the other client must not wait for it
					}
					gate.pass(completed.Load())
					inside.Add(1)
					time.Sleep(10 * time.Microsecond)
					inside.Add(-1)
					completed.Add(1)
				}
			}(c)
		}
		wg.Wait()
		if reads != 1 {
			t.Errorf("quitter=%v: %d readings, want 1", quitter, reads)
		}
	}
}

// declared reads the metric declarations of BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s in %s, declared %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: no request
// fails or mismatches, the output carries exactly the declared metrics, and
// the traced run's budget adds up to the client's mean latency.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack")
	}
	e2e, layer := declared(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			// Two set-ups, one on each side of the phase, and an early
			// heap reading that the short phase is sure to reach.
			cfg := config{seed: 3, seconds: 1.2, traced: traced, workdir: t.TempDir(), setups: 2, heapAt: 4}
			var out bytes.Buffer
			res, err := runBench(benches[name](), cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if !traced {
				sameMetrics(t, res.Metrics, e2e)
				continue
			}
			sameMetrics(t, res.Metrics, layer)
			v := func(k string) float64 { return res.Metrics[k].Value }
			attributed := v("serve.handler_us") + v("cluster.self_us")
			if d := math.Abs(attributed + v("budget.unattributed_us") - v("budget.client_mean_us")); d > 1e-6*v("budget.client_mean_us") {
				t.Errorf("%s: attributed %.3f + unattributed %.3f != client mean %.3f", name, attributed, v("budget.unattributed_us"), v("budget.client_mean_us"))
			}
			if v("budget.unattributed_us") < 0 {
				t.Errorf("%s: layers account for more than the client saw", name)
			}
			stages := v("serve.decode_us") + v("serve.validate_us") + v("serve.cache_lookup_us") + v("serve.disk_lookup_us") +
				v("serve.queue_wait_us") + v("serve.compute_us") + v("serve.marshal_us") + v("serve.write_us")
			if stages > v("serve.handler_us") {
				t.Errorf("%s: serve stages %.3f exceed the handler's %.3f", name, stages, v("serve.handler_us"))
			}
			if v("client.attempts_per_req") != 1 {
				t.Errorf("%s: %v attempts per request", name, v("client.attempts_per_req"))
			}
			switch name {
			case "hit-gw2":
				if v("serve.hit_ratio") != 1 || v("cluster.backend_conns_per_req") < 1 {
					t.Errorf("hit-gw2: hit ratio %v, %v backend connections per request", v("serve.hit_ratio"), v("cluster.backend_conns_per_req"))
				}
			case "disk-warm":
				if v("serve.disk_hit_ratio") != 1 || v("store.disk_reads_per_get") != 1 {
					t.Errorf("disk-warm: disk hit ratio %v, %v reads per get", v("serve.disk_hit_ratio"), v("store.disk_reads_per_get"))
				}
			case "miss-direct":
				if v("serve.hit_ratio") != 0 || v("store.bloom_negative_ratio") != 1 || v("engine.iterate_us") <= 0 {
					t.Errorf("miss-direct: hit ratio %v, bloom negatives %v, engine %v", v("serve.hit_ratio"), v("store.bloom_negative_ratio"), v("engine.iterate_us"))
				}
			}
		}
	}
}

// TestHeapReadingNeverReachedFails: a phase that completes fewer requests
// than the point at which it reads the live heap fails instead of reading
// the heap after less work.
func TestHeapReadingNeverReachedFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack")
	}
	cfg := config{seed: 3, seconds: 0.3, workdir: t.TempDir(), setups: 2, heapAt: 1 << 40}
	_, err := runBench(benches["hit-gw2"](), cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "reads the live heap") {
		t.Fatalf("err = %v, want the unreached heap reading", err)
	}
}
