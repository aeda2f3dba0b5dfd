package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Workload sizes. They are fixed numbers, not derived from the program's
// defaults, so every version of the program gets the same traffic; they
// were chosen against today's LRU of 256 entries per daemon
// (serve.DefaultCacheEntries). hitDistinct stays well under one backend's
// LRU even if every key hashed to one backend; diskKeys is four LRUs'
// worth, so a cycle through them in order evicts every key before it comes
// round again, and the warm-up sends one LRU's worth. A larger LRU shows
// as disk-warm answers turning into memory hits.
const (
	smallTasks, smallMachines = 64, 8
	paperTasks, paperMachines = 512, 16
	hitDistinct               = 128
	missWarm                  = 8
	diskKeys                  = 1024
	diskWarmKeys              = 256
)

// Requests after which a measured phase pauses to read the live heap: a
// fixed amount of work, so the reading does not grow with the phase's
// speed (miss-direct's disk tier indexes every key it is sent). Each is
// reached in well under half a 20 s phase on a 2-CPU host; a run whose
// phase never reaches it fails rather than read the heap elsewhere.
const (
	hitHeapAt  = 4096
	missHeapAt = 512
	diskHeapAt = 4096
)

// stack is one running system under test.
type stack struct {
	url     string    // base URL the load goes to
	daemons []*daemon // every serve stack: the backends, or the one daemon
	gw      *gateway  // nil when the load goes straight to a daemon
}

func (s *stack) close() error {
	if s.gw != nil {
		return s.gw.close()
	}
	var errs []error
	for _, d := range s.daemons {
		errs = append(errs, d.close())
	}
	return errors.Join(errs...)
}

// numClients is every workload's closed-loop client count: one per CPU
// and per worker of the default pool on the 2-CPU hosts the benchmark
// targets. With a single client the CPUs keep going idle between the hops
// of a request, and on a virtual machine each wake-up waits for the
// hypervisor: on a 2-vCPU Xeon VM, interleaved runs with one client saw
// 11-22% steal in their quiet windows and about twice the run-to-run
// spread of throughput and latency that two clients saw (0-8% steal).
const numClients = 2

// bench is one workload.
type bench interface {
	// prepare synthesizes the inputs and builds the reference responses
	// and any persistent state, outside every timed phase.
	prepare(seed uint64, workdir string, cls []*loadClient) error
	// start builds the stack; warm runs the fixed warm-up. Both are timed
	// as set-up.
	start(pr *probe) (*stack, error)
	warm(st *stack, cls []*loadClient) error
	// target is the measured traffic, starting at request first.
	target(st *stack) (tg target, first int64)
	// verify checks what the phases could not check inline and returns the
	// number of mismatched responses.
	verify() (int64, error)
}

var benches = map[string]func() bench{
	"hit-gw2":     func() bench { return &hitGW2{} },
	"miss-direct": func() bench { return &missDirect{} },
	"disk-warm":   func() bench { return &diskWarm{} },
}

const iterate = "/v1/iterate"

// hitGW2: the clients cycle a warm distinct set through a two-backend
// gateway, so every answer is a backend LRU hit. The references come from
// a direct single daemon, which checks that N backends answer exactly as
// one instance does.
type hitGW2 struct {
	bodies, want [][]byte
}

func (h *hitGW2) prepare(seed uint64, _ string, cls []*loadClient) error {
	var err error
	if h.bodies, err = newCorpus(seed, "hit-gw2", smallTasks, smallMachines).bodies(0, hitDistinct); err != nil {
		return err
	}
	ref, err := startDaemon("", nil, 0)
	if err != nil {
		return err
	}
	h.want, err = postAll(cls[:1], ref.url+iterate, h.bodies)
	return errors.Join(err, ref.close())
}

func (h *hitGW2) start(pr *probe) (*stack, error) {
	g, err := startGateway(2, pr)
	if err != nil {
		return nil, err
	}
	return &stack{url: g.url, daemons: g.backends, gw: g}, nil
}

// warm sends the distinct set twice: the first round computes every key on
// its owner, the second serves it from memory.
func (h *hitGW2) warm(st *stack, cls []*loadClient) error {
	for round := 0; round < 2; round++ {
		got, err := postAll(cls, st.url+iterate, h.bodies)
		if err != nil {
			return err
		}
		if err := sameBodies(got, h.want); err != nil {
			return err
		}
	}
	return nil
}

func (h *hitGW2) target(st *stack) (target, int64) {
	return target{
		url:  st.url + iterate,
		body: func(seq int64, _ []byte) ([]byte, error) { return h.bodies[seq%hitDistinct], nil },
		check: func(seq int64, r *client.Response) bool {
			return bytes.Equal(r.Body, h.want[seq%hitDistinct])
		},
		heapAt: hitHeapAt,
	}, 0
}

func (*hitGW2) verify() (int64, error) { return 0, nil }

// missDirect: the clients send distinct paper-sized instances straight to
// a daemon with a fresh, empty disk tier. Responses are hashed inline and
// recomputed by a storeless reference server after the measured phases.
type missDirect struct {
	c       corpus
	workdir string
	warmSet [][]byte
	mu      sync.Mutex
	got     map[int64][][sha256.Size]byte // response hashes by request, one per phase that sent it
	respLen atomic.Int64                  // length of a measured response
	stores  int
}

func (m *missDirect) prepare(seed uint64, workdir string, _ []*loadClient) error {
	m.c = newCorpus(seed, "miss-direct", paperTasks, paperMachines)
	m.workdir = workdir
	m.got = map[int64][][sha256.Size]byte{}
	var err error
	m.warmSet, err = m.c.bodies(0, missWarm)
	return err
}

func (m *missDirect) start(pr *probe) (*stack, error) {
	m.stores++
	d, err := startDaemon(filepath.Join(m.workdir, fmt.Sprintf("miss-store-%d", m.stores)), pr, 0)
	if err != nil {
		return nil, err
	}
	return &stack{url: d.url, daemons: []*daemon{d}}, nil
}

func (m *missDirect) warm(st *stack, cls []*loadClient) error {
	_, err := postAll(cls, st.url+iterate, m.warmSet)
	return err
}

func (m *missDirect) target(st *stack) (target, int64) {
	return target{
		url:  st.url + iterate,
		body: func(seq int64, buf []byte) ([]byte, error) { return m.c.appendBody(buf[:0], seq) },
		check: func(seq int64, r *client.Response) bool {
			sum := sha256.Sum256(r.Body)
			m.respLen.Store(int64(len(r.Body)))
			m.mu.Lock()
			m.got[seq] = append(m.got[seq], sum)
			m.mu.Unlock()
			return true
		},
		heapAt: missHeapAt,
	}, missWarm
}

// ownWork repeats, one request after another, what a client does per
// request besides its Post: synthesize the body into a reused buffer and
// hash a response of the measured length.
func (m *missDirect) ownWork(first int64, n int) (ownCost, error) {
	resp := make([]byte, m.respLen.Load())
	var buf []byte
	liveHeap()
	before := takeProcSnap()
	for seq := first; seq < first+int64(n); seq++ {
		var err error
		if buf, err = m.c.appendBody(buf[:0], seq); err != nil {
			return ownCost{}, err
		}
		sha256.Sum256(resp)
	}
	after := takeProcSnap()
	return ownCost{
		cpu:   (after.cpu - before.cpu) / time.Duration(n),
		alloc: float64(after.allocBytes-before.allocBytes) / float64(n),
	}, nil
}

// verify recomputes every answered request on a storeless reference
// server, two at a time, and counts responses whose bytes differ.
func (m *missDirect) verify() (int64, error) {
	ref := serve.NewServer(serve.Options{CacheEntries: -1})
	defer ref.Drain(context.Background())
	seqs := make(chan int64)
	var bad, errs []int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range seqs {
				body, err := m.c.appendBody(nil, seq)
				rec := httptest.NewRecorder()
				if err == nil {
					ref.Handler().ServeHTTP(rec, httptest.NewRequest("POST", iterate, bytes.NewReader(body)))
				}
				mu.Lock()
				switch {
				case err != nil || rec.Code != 200:
					errs = append(errs, seq)
				default:
					want := sha256.Sum256(rec.Body.Bytes())
					for _, sum := range m.got[seq] {
						if sum != want {
							bad = append(bad, seq)
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	for seq := range m.got {
		seqs <- seq
	}
	close(seqs)
	wg.Wait()
	if len(errs) > 0 {
		return 0, fmt.Errorf("reference server failed on %d requests (first %d)", len(errs), errs[0])
	}
	return int64(len(bad)), nil
}

// engineSample times the engine's public iterate entry on the first n
// measured instances, one after another, and returns the mean.
func (m *missDirect) engineSample(n int) (time.Duration, error) {
	var total time.Duration
	for i := int64(missWarm); i < missWarm+int64(n); i++ {
		mat, err := m.c.matrix(i)
		if err != nil {
			return 0, err
		}
		in, err := sched.NewInstance(mat, nil)
		if err != nil {
			return 0, err
		}
		h, err := heuristics.ByName(m.c.heuristic(i), 0)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := core.Iterate(in, h, core.Deterministic()); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return total / time.Duration(n), nil
}

// diskWarm: the clients cycle, in order, more distinct keys than the LRU
// holds through a restarted daemon, so every request misses the LRU and
// hits the disk tier. prepare fills the tier through a previous life of
// the same daemon; those computed responses are the references.
type diskWarm struct {
	dir          string
	bodies, want [][]byte
}

func (d *diskWarm) prepare(seed uint64, workdir string, cls []*loadClient) error {
	var err error
	if d.bodies, err = newCorpus(seed, "disk-warm", smallTasks, smallMachines).bodies(0, diskKeys); err != nil {
		return err
	}
	d.dir = filepath.Join(workdir, "disk-store")
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	fill, err := startDaemon(d.dir, nil, 0)
	if err != nil {
		return err
	}
	d.want, err = postAll(cls, fill.url+iterate, d.bodies)
	return errors.Join(err, fill.close())
}

func (d *diskWarm) start(pr *probe) (*stack, error) {
	dm, err := startDaemon(d.dir, pr, 0)
	if err != nil {
		return nil, err
	}
	return &stack{url: dm.url, daemons: []*daemon{dm}}, nil
}

func (d *diskWarm) warm(st *stack, cls []*loadClient) error {
	got, err := postAll(cls, st.url+iterate, d.bodies[:diskWarmKeys])
	if err != nil {
		return err
	}
	return sameBodies(got, d.want[:diskWarmKeys])
}

func (d *diskWarm) target(st *stack) (target, int64) {
	return target{
		url:  st.url + iterate,
		body: func(seq int64, _ []byte) ([]byte, error) { return d.bodies[seq%diskKeys], nil },
		check: func(seq int64, r *client.Response) bool {
			return bytes.Equal(r.Body, d.want[seq%diskKeys])
		},
		heapAt: diskHeapAt,
	}, diskWarmKeys
}

func (*diskWarm) verify() (int64, error) { return 0, nil }

func sameBodies(got, want [][]byte) error {
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("warm-up response %d differs from the reference", i)
		}
	}
	return nil
}
