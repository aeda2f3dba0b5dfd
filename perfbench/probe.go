package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// probe is the traced run's instrumentation. It only observes the
// program's public surfaces: span sinks on the tracers the daemons already
// run, timing middleware around the handlers, a timing wrapper around the
// store and an accept counter on the benchmark-owned listeners.
type probe struct {
	gwSpans, srvSpans     spanSums
	gwHandler, srvHandler handlerTimer
	accepts               atomic.Int64
	store                 *timedStore
}

func newProbe(backends int) *probe {
	pr := &probe{}
	pr.srvHandler.perBackend = make([]atomic.Int64, backends)
	pr.gwHandler.perBackend = make([]atomic.Int64, 1)
	return pr
}

func (pr *probe) wrapStore(st *store.Store) serve.ResultStore {
	pr.store = &timedStore{st: st}
	return pr.store
}

// probeSnap is a probe's cumulative readings at one instant; phase figures
// are differences of two snapshots.
type probeSnap struct {
	gwSpans, srvSpans   map[string]int64
	gwNS, srvNS         int64
	perBackend          []int64
	accepts             int64
	gets, getNS, putNS  int64
	diskReads, bloomNeg int64
}

func (pr *probe) snapshot() probeSnap {
	s := probeSnap{
		gwSpans:  pr.gwSpans.snapshot(),
		srvSpans: pr.srvSpans.snapshot(),
		accepts:  pr.accepts.Load(),
	}
	s.gwNS, s.srvNS = pr.gwHandler.ns.Load(), pr.srvHandler.ns.Load()
	for i := range pr.srvHandler.perBackend {
		s.perBackend = append(s.perBackend, pr.srvHandler.perBackend[i].Load())
	}
	if ts := pr.store; ts != nil {
		s.gets, s.getNS = ts.gets.Load(), ts.getNS.Load()
		s.putNS = ts.putNS.Load()
		st := ts.st.Stats()
		s.diskReads, s.bloomNeg = st.DiskReads, st.BloomNegatives
	}
	return s
}

// idle waits until no handler is running, so a snapshot taken after the
// load stops counts every request the load sent.
func (pr *probe) idle() {
	for pr.gwHandler.inflight.Load() != 0 || pr.srvHandler.inflight.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// spanSums is an obs.Observer that totals span durations by span name.
type spanSums struct {
	mu  sync.Mutex
	sum map[string]int64
}

func (s *spanSums) Observe(e obs.Event) {
	sp, ok := e.(obs.Span)
	if !ok {
		return
	}
	s.mu.Lock()
	if s.sum == nil {
		s.sum = map[string]int64{}
	}
	s.sum[sp.Name] += sp.DurationNS
	s.mu.Unlock()
}

func (s *spanSums) snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.sum))
	for k, v := range s.sum {
		out[k] = v
	}
	return out
}

// handlerTimer is timing middleware: total handler time, requests in
// flight and requests per backend.
type handlerTimer struct {
	ns, inflight atomic.Int64
	perBackend   []atomic.Int64
}

func (t *handlerTimer) wrap(h http.Handler, backend int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.inflight.Add(1)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.ns.Add(int64(time.Since(t0)))
		t.perBackend[backend].Add(1)
		t.inflight.Add(-1)
	})
}

// timedStore times the disk tier's Get and Put and passes the health
// contract through, so the server gates the tier exactly as without it.
type timedStore struct {
	st                 *store.Store
	gets, getNS, putNS atomic.Int64
}

func (t *timedStore) Get(key string) ([]byte, bool, error) {
	t0 := time.Now()
	b, ok, err := t.st.Get(key)
	t.getNS.Add(int64(time.Since(t0)))
	t.gets.Add(1)
	return b, ok, err
}

func (t *timedStore) Put(key string, body []byte) error {
	t0 := time.Now()
	err := t.st.Put(key, body)
	t.putNS.Add(int64(time.Since(t0)))
	return err
}

func (t *timedStore) ConsultRead() bool   { return t.st.ConsultRead() }
func (t *timedStore) ConsultWrite() bool  { return t.st.ConsultWrite() }
func (t *timedStore) HealthState() string { return t.st.HealthState() }
