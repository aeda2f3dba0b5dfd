package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type config struct {
	seed    uint64
	seconds float64
	traced  bool
	workdir string
	setups  int   // set-ups per run; the command uses numSetups
	heapAt  int64 // when positive, replaces the workload's heap-reading point
}

// numSetups is the number of set-ups in a run. They are split around the
// measured phase, so they sample the host's noise over the whole run
// rather than one burst of it, and setup_s is the median of the quiet
// ones (see quietSetups).
const numSetups = 31

// setupSample is one set-up's wall time and the share of the host's CPU
// time the hypervisor stole meanwhile.
type setupSample struct {
	secs, steal float64
}

// quietSetups picks the set-ups to report by the same rule as the
// measured phase's quiet windows, and from the steal counters alone:
// every set-up without steal, or the least stolen third when fewer are
// steal-free. On a 2-vCPU Xeon VM a set-up took from 0.1 to 0.35 s within
// one run, tracking the steal.
func quietSetups(ss []setupSample) []float64 {
	ss = append([]setupSample(nil), ss...)
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].steal < ss[j].steal })
	keep := (len(ss) + 2) / 3
	for keep < len(ss) && ss[keep].steal == 0 {
		keep++
	}
	var secs []float64
	for _, s := range ss[:keep] {
		secs = append(secs, s.secs)
	}
	return secs
}

// runBench runs one workload. It sets up cfg.setups times — about half
// before the measured phase, the rest after it — and measures on the last
// stack set up before it; setup_s is the median quiet set-up. The untraced
// run measures cfg.seconds and reports the end-to-end metrics. The traced run
// measures half the time on that plain stack, then sets up once more with
// the probe attached and measures the other half; the per-layer metrics
// come from the second half, and the p50 ratio of the two halves is the
// probe's overhead.
func runBench(b bench, cfg config, stdout io.Writer) (res result, err error) {
	timeWait := tcpTimeWait()
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	cls := make([]*loadClient, numClients)
	for i := range cls {
		cls[i] = newLoadClient(uint64(i + 1))
	}
	defer closeIdle(cls)
	if err := b.prepare(cfg.seed, dir, cls); err != nil {
		return res, fmt.Errorf("prepare: %w", err)
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	// Room for 3000 requests per second per client before a buffer grows.
	buf := newSamples(numClients, int(cfg.seconds*3000))

	var setups []setupSample
	var openMS []float64
	// setUpTimed sets up once and records the set-up; keep says whether
	// the stack stays up.
	setUpTimed := func(keep bool) (*stack, error) {
		steal0, all0 := readStat()
		st, dt, err := setUp(b, nil, cls)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sample := setupSample{secs: dt.Seconds()}
		if steal1, all1 := readStat(); all1 > all0 {
			sample.steal = float64(steal1-steal0) / float64(all1-all0)
		}
		setups = append(setups, sample)
		openMS = append(openMS, float64(st.daemons[0].openDur)/1e6)
		if keep {
			return st, nil
		}
		err = st.close()
		closeIdle(cls)
		return nil, err
	}
	before := (cfg.setups + 1) / 2
	for k := 0; k < before-1; k++ {
		if _, err := setUpTimed(false); err != nil {
			return res, err
		}
	}
	// The live heap before the last set-up holds the inputs, the
	// references and nothing of the program; heap_live_mb is net of it.
	heapBase := liveHeap()
	st, err := setUpTimed(true)
	if err != nil {
		return res, err
	}

	tg, first := b.target(st)
	phaseDur := dur
	switch {
	case cfg.traced:
		phaseDur = dur / 2
		tg.heapAt = 0
	case cfg.heapAt > 0:
		tg.heapAt = cfg.heapAt
	}
	plain, err := drive(cls, tg, first, phaseDur, buf)
	if err != nil {
		st.close()
		return res, err
	}
	if err := st.close(); err != nil {
		return res, err
	}
	closeIdle(cls)
	for k := before; k < cfg.setups; k++ {
		if _, err := setUpTimed(false); err != nil {
			return res, err
		}
	}
	fmt.Fprintln(stdout, hostLine(plain.proc.stealPct, timeWait))

	res = result{Attempted: plain.ops, Failed: plain.failed}
	if !cfg.traced {
		var own ownCost
		if m, ok := b.(*missDirect); ok {
			if own, err = m.ownWork(first, ownSample); err != nil {
				return res, err
			}
		}
		res.Metrics = endToEnd(plain, quietSetups(setups), heapBase, own)
		q := plain.quiet()
		fmt.Fprintf(stdout, "samples: %d requests in %.3fs; quiet windows %.1fs with %d requests at %.2f%% steal; own work %v CPU and %.1f KiB per request; set-ups (s, steal share) %.3f\n",
			plain.ops, plain.proc.wall.Seconds(), q.seconds, q.ops, q.stealPct, own.cpu, own.alloc/1024, setups)
	} else {
		traced, lm, err := tracedPhase(b, cls, phaseDur, buf)
		if err != nil {
			return res, err
		}
		res.Attempted += traced.ops
		res.Failed += traced.failed
		lm.plain, lm.traced, lm.openMS, lm.timeWait = plain, traced, median(openMS), timeWait
		res.Metrics = lm.metrics()
		fmt.Fprintf(stdout, "samples: %d plain + %d traced requests\n", plain.ops, traced.ops)
	}
	bad, err := b.verify()
	if err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	res.Failed += bad
	res.Correct = res.Failed == 0
	return res, nil
}

// setUp builds a stack and runs the fixed warm-up, timing both.
func setUp(b bench, pr *probe, cls []*loadClient) (*stack, time.Duration, error) {
	t0 := time.Now()
	st, err := b.start(pr)
	if err != nil {
		return nil, 0, err
	}
	if err := b.warm(st, cls); err != nil {
		return nil, 0, errors.Join(err, st.close())
	}
	return st, time.Since(t0), nil
}

func closeIdle(cls []*loadClient) {
	for _, c := range cls {
		c.tr.CloseIdleConnections()
	}
}

// ownCost is the CPU time and allocation per request of the work a
// workload's clients do in the measured phase that is not the program's.
// Only miss-direct's clients do any worth counting: they synthesize each
// body and hash each response.
type ownCost struct {
	cpu   time.Duration
	alloc float64 // bytes
}

// ownSample is the number of requests ownWork repeats.
const ownSample = 64

// endToEnd is what a caller of the system sees. Throughput, latency and CPU
// come from the phase's quiet windows; allocation is counted over the
// whole phase; CPU and allocation are net of the benchmark's own work per
// request; the live heap was read in the phase's pause. setupS holds the
// quiet set-ups.
func endToEnd(p phaseResult, setupS []float64, heapBase uint64, own ownCost) map[string]metric {
	q := p.quiet()
	return map[string]metric{
		"throughput_rps":   {float64(q.ops) / q.seconds, "1/s"},
		"latency_p50_ms":   {quantile(q.latMS, 0.5), "ms"},
		"latency_p90_ms":   {quantile(q.latMS, 0.9), "ms"},
		"cpu_us_per_req":   {(float64(q.cpu)/float64(q.ops) - float64(own.cpu)) / 1e3, "us"},
		"alloc_kb_per_req": {(float64(p.proc.allocBytes)/float64(p.ops) - own.alloc) / 1024, "KiB"},
		"heap_live_mb":     {(float64(p.heap.live) - float64(heapBase)) / (1 << 20), "MiB"},
		"setup_s":          {median(setupS), "s"},
	}
}

// tracedPhase sets up a stack with the probe attached and measures it.
func tracedPhase(b bench, cls []*loadClient, dur time.Duration, buf samples) (phaseResult, *layers, error) {
	pr := newProbe(2)
	liveHeap()
	st, _, err := setUp(b, pr, cls)
	if err != nil {
		return phaseResult{}, nil, fmt.Errorf("traced set-up: %w", err)
	}
	tg, first := b.target(st)
	tg.heapAt = 0
	pr.idle()
	lm := &layers{gateway: st.gw != nil}
	lm.p0, lm.c0 = pr.snapshot(), serveCounts(st)
	ph, err := drive(cls, tg, first, dur, buf)
	if err != nil {
		st.close()
		return ph, nil, err
	}
	pr.idle()
	lm.p1, lm.c1 = pr.snapshot(), serveCounts(st)
	if err := st.close(); err != nil {
		return ph, nil, err
	}
	closeIdle(cls)
	if m, ok := b.(*missDirect); ok {
		if lm.engine, err = m.engineSample(8); err != nil {
			return ph, nil, err
		}
	}
	return ph, lm, nil
}
