package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// target is the traffic of one measured phase. body returns request seq's
// body (it may reuse buf); check reports whether a 200 response is the
// right one. heapAt is the number of completed requests after which the
// phase pauses to read the live heap (0: never).
type target struct {
	url    string
	body   func(seq int64, buf []byte) ([]byte, error)
	check  func(seq int64, resp *client.Response) bool
	heapAt int64
}

// phaseResult is one measured phase as the clients saw it.
type phaseResult struct {
	ops, failed int64
	latMS       []float64     // raw per-request latencies
	endNS       []int64       // each request's completion, from the phase start
	dur         time.Duration // measured time, the heap pause excluded
	heap        heapReading
	attempts    int64 // client attempts, retries included
	proc        procDelta
	ticks       []tick
}

// tick is the process CPU time and the host's steal counters at an
// offset into the phase.
type tick struct {
	at, cpu    time.Duration
	steal, all uint64
}

// Quiet windows. The host's hypervisor steals CPU from the guest, from
// none to about a third of it in any tenth of a second, and stolen time
// runs the same work markedly slower. The time metrics are therefore taken
// over a phase's quiet windows, a window being the span between two ticks:
// every window in which the host stole no CPU at all, or the quietest share
// of the windows when fewer are steal-free. Which windows count depends
// only on the host's steal counters, never on the figures measured in them.
const (
	tickEvery  = 100 * time.Millisecond
	quietShare = 8 // at least 1 in quietShare windows is kept
)

func (p phaseResult) meanMS() float64 {
	var s float64
	for _, x := range p.latMS {
		s += x
	}
	return s / float64(len(p.latMS))
}

// drive runs a closed loop: each client sends its next request only after
// the previous one completed, until dur has elapsed. Request numbers are
// handed out from first upward across all clients. Latency is measured
// around the client's Post alone, so body synthesis is not part of it.
func drive(clients []*loadClient, tg target, first int64, dur time.Duration, buf samples) (phaseResult, error) {
	var (
		next, completed atomic.Int64
		deadline        atomic.Int64 // UnixNano; the heap pause extends it
		mu              sync.Mutex
		res             phaseResult
		firstErr        error
		wg              sync.WaitGroup
	)
	next.Store(first)
	lats, ends := buf.lat, buf.end
	for i := range lats {
		lats[i], ends[i] = lats[i][:0], ends[i][:0]
	}
	var att0 int64
	for _, c := range clients {
		att0 += c.attempts()
	}
	before := takeProcSnap()
	deadline.Store(before.wall.Add(dur).UnixNano())
	gate := newHeapGate(tg.heapAt, len(clients), func() {
		res.heap = readHeapPaused(before.wall)
		deadline.Add(int64(res.heap.to - res.heap.from))
	})
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *loadClient) {
			defer wg.Done()
			defer gate.leave()
			var buf []byte
			var failed int64
			for {
				gate.pass(completed.Load())
				if time.Now().UnixNano() >= deadline.Load() {
					break
				}
				seq := next.Add(1) - 1
				body, err := tg.body(seq, buf)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				buf = body
				t0 := time.Now()
				resp, err := c.cl.Post(context.Background(), tg.url, body)
				now := time.Now()
				completed.Add(1)
				lats[ci] = append(lats[ci], float64(now.Sub(t0))/1e6)
				ends[ci] = append(ends[ci], int64(now.Sub(before.wall)))
				if err != nil || resp.Status != 200 || !tg.check(seq, resp) {
					if failed == 0 {
						why := fmt.Sprint(err)
						if err == nil {
							why = fmt.Sprintf("status %d or bytes differ from the reference", resp.Status)
						}
						fmt.Fprintf(os.Stderr, "perfbench: request %d failed: %s\n", seq, why)
					}
					failed++
				}
			}
			mu.Lock()
			res.failed += failed
			mu.Unlock()
		}(ci, c)
	}
	stop := make(chan struct{})
	ticked := make(chan []tick)
	go func() { ticked <- sampleTicks(before, stop) }()
	wg.Wait()
	close(stop)
	res.ticks = <-ticked
	res.proc = diffProc(before, takeProcSnap())
	res.dur = dur
	if tg.heapAt > 0 && !res.heap.taken && firstErr == nil {
		// A reading after fewer requests would make a slower program look
		// leaner, so there is none.
		firstErr = fmt.Errorf("the phase completed %d requests, fewer than the %d after which it reads the live heap", completed.Load(), tg.heapAt)
	}
	for i, l := range lats {
		res.latMS = append(res.latMS, l...)
		res.endNS = append(res.endNS, ends[i]...)
	}
	res.ops = int64(len(res.latMS))
	for _, c := range clients {
		res.attempts += c.attempts()
	}
	res.attempts -= att0
	return res, firstErr
}

// sampleTicks takes a tick at every multiple of tickEvery after the phase
// start until stop is closed. It sleeps to each boundary rather than
// using a ticker, so a late tick is late but never lost.
func sampleTicks(start procSnap, stop <-chan struct{}) []tick {
	ts := []tick{{cpu: start.cpu, steal: start.stealTicks, all: start.allTicks}}
	for n := 1; ; n++ {
		select {
		case <-stop:
			return ts
		case <-time.After(time.Until(start.wall.Add(time.Duration(n) * tickEvery))):
		}
		steal, all := readStat()
		ts = append(ts, tick{at: time.Since(start.wall), cpu: processCPU(), steal: steal, all: all})
	}
}

// samples holds a phase's per-client latency and completion buffers; the
// phase copies them out, so one samples serves phase after phase. The
// runner allocates them before it takes the heap baseline, so they never
// count as the program's heap.
type samples struct {
	lat [][]float64
	end [][]int64
}

func newSamples(clients, perClient int) samples {
	s := samples{lat: make([][]float64, clients), end: make([][]int64, clients)}
	for i := range s.lat {
		s.lat[i] = make([]float64, 0, perClient)
		s.end[i] = make([]int64, 0, perClient)
	}
	return s
}

// heapReading is the live heap read during a phase's pause, and the
// pause's span from the phase start.
type heapReading struct {
	live     uint64
	from, to time.Duration
	taken    bool
}

// readHeapPaused reads the live heap while the phase's clients wait.
func readHeapPaused(start time.Time) heapReading {
	h := heapReading{from: time.Since(start), taken: true}
	h.live = liveHeap()
	h.to = time.Since(start)
	return h
}

// heapGate pauses a phase's clients once, as soon as they have completed
// at requests, and runs read while none of them is inside a request. The
// heap reading is then the program's state after a fixed amount of work,
// however fast the phase ran.
type heapGate struct {
	at      int64
	read    func()
	done    atomic.Bool
	mu      sync.Mutex
	cond    *sync.Cond
	running int // clients still looping
	waiting int // clients waiting at the gate
}

func newHeapGate(at int64, clients int, read func()) *heapGate {
	g := &heapGate{at: at, read: read, running: clients}
	g.cond = sync.NewCond(&g.mu)
	if at <= 0 {
		g.done.Store(true)
	}
	return g
}

// pass is called by a client between requests. Once completed reaches at,
// it waits until every client still looping has arrived; the last to
// arrive takes the reading.
func (g *heapGate) pass(completed int64) {
	if g.done.Load() || completed < g.at {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waiting++
	g.release()
	for !g.done.Load() {
		g.cond.Wait()
	}
}

// leave is called by a client that stops looping, so the others never
// wait for it.
func (g *heapGate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.running--
	g.release()
}

// release takes the reading when every running client waits. g.mu is held.
func (g *heapGate) release() {
	if g.done.Load() || g.waiting == 0 || g.waiting < g.running {
		return
	}
	g.read()
	g.done.Store(true)
	g.cond.Broadcast()
}

// postOK sends one request and returns its body, failing on anything but
// a 200.
func postOK(c *loadClient, url string, body []byte) ([]byte, error) {
	resp, err := c.cl.Post(context.Background(), url, body)
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("status %d", resp.Status)
	}
	return resp.Body, nil
}

// postAll sends bodies[i] for every i across the clients (client c takes
// i ≡ c mod len(clients)) and returns the response bodies in input order.
func postAll(clients []*loadClient, url string, bodies [][]byte) ([][]byte, error) {
	out := make([][]byte, len(bodies))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *loadClient) {
			defer wg.Done()
			for i := ci; i < len(bodies); i += len(clients) {
				b, err := postOK(c, url, bodies[i])
				if err != nil {
					errs[ci] = fmt.Errorf("body %d: %w", i, err)
					return
				}
				out[i] = b
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// quietView is a phase restricted to its quiet windows.
type quietView struct {
	ops      int
	seconds  float64
	cpu      time.Duration
	latMS    []float64
	stealPct float64
}

// quiet selects the phase's quiet windows (at least one, when the phase
// has a complete window) and pools the requests that completed in them.
// Windows overlapping the heap pause, and windows after the deadline while
// the clients finish their last requests, carry less load and never count.
func (p phaseResult) quiet() quietView {
	type win struct {
		k     int
		steal float64
	}
	var ws []win
	// Window k ends at tick k+1; windows ending after the deadline, which
	// the heap pause moved, are left out.
	pause := p.heap.to - p.heap.from
	slots := min(len(p.ticks)-1, int((p.dur+pause)/tickEvery))
	for k := 0; k < slots; k++ {
		a, b := p.ticks[k], p.ticks[k+1]
		if pause > 0 && a.at < p.heap.to && b.at > p.heap.from {
			continue // the clients were paused
		}
		var steal float64
		if b.all > a.all {
			steal = float64(b.steal-a.steal) / float64(b.all-a.all)
		}
		ws = append(ws, win{k, steal})
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	keep := (len(ws) + quietShare - 1) / quietShare
	for keep < len(ws) && ws[keep].steal == 0 {
		keep++
	}
	var v quietView
	var stolen float64
	kept := make([]bool, slots)
	for _, w := range ws[:keep] {
		a, b := p.ticks[w.k], p.ticks[w.k+1]
		v.seconds += (b.at - a.at).Seconds()
		v.cpu += b.cpu - a.cpu
		stolen += w.steal
		kept[w.k] = true
	}
	for i, e := range p.endNS {
		// The last tick at or before the completion opens its window.
		t := sort.Search(len(p.ticks), func(j int) bool { return p.ticks[j].at > time.Duration(e) }) - 1
		if t >= 0 && t < len(kept) && kept[t] {
			v.latMS = append(v.latMS, p.latMS[i])
		}
	}
	v.ops = len(v.latMS)
	if keep > 0 {
		v.stealPct = 100 * stolen / float64(keep)
	}
	return v
}
