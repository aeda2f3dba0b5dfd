package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// daemon is one in-process schedd: the serve stack built exactly as
// cmd/schedd builds it (default queue, workers and LRU; the always-on
// span-metrics tracer; an optional disk tier) on a loopback listener.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	st      *store.Store
	url     string
	openDur time.Duration // store.Open, zero without a disk tier
}

// startDaemon boots a daemon. storeDir "" means no disk tier; backend is
// the daemon's index among a gateway's backends, 0 for a lone daemon. A
// non-nil probe adds the benchmark's observers around the program's public
// surfaces: a span sink on the tracer, a timing middleware around the
// handler, a timing wrapper around the store and an accept counter on the
// listener.
func startDaemon(storeDir string, pr *probe, backend int) (*daemon, error) {
	d := &daemon{}
	opts := serve.Options{}
	if storeDir != "" {
		t0 := time.Now()
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		d.openDur = time.Since(t0)
		d.st = st
		opts.Store = st
		if pr != nil {
			opts.Store = pr.wrapStore(st)
		}
	}
	reg := obs.NewMetrics()
	opts.Metrics = reg
	sinks := obs.Multi{obs.NewSpanMetricsObserver(reg, "serve")}
	if pr != nil {
		sinks = append(sinks, &pr.srvSpans)
	}
	opts.Tracer = obs.NewTracer(sinks)
	d.srv = serve.NewServer(opts)
	var h http.Handler = d.srv.Handler()
	if pr != nil {
		h = pr.srvHandler.wrap(h, backend)
	}
	ln, err := listen(pr)
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: h}
	go d.hs.Serve(ln)
	return d, nil
}

// close shuts the listener and connections, drains the worker pool and the
// write-behind queue, then closes the store.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if d.hs != nil {
		errs = append(errs, d.hs.Shutdown(ctx))
	}
	if d.srv != nil {
		errs = append(errs, d.srv.Drain(ctx))
	}
	if d.st != nil {
		errs = append(errs, d.st.Close())
	}
	return errors.Join(errs...)
}

// gateway is one in-process schedgw fronting benchmark-owned backend
// daemons, built with cmd/schedgw's defaults: two retries at 5ms backoff,
// a 10s per-attempt timeout, the default breaker, jitter seed 1, and a
// backend transport with keep-alives disabled.
type gateway struct {
	gw       *cluster.Gateway
	hs       *http.Server
	url      string
	backends []*daemon
}

func startGateway(n int, pr *probe) (*gateway, error) {
	g := &gateway{}
	var members []cluster.Backend
	for i := 0; i < n; i++ {
		d, err := startDaemon("", pr, i)
		if err != nil {
			g.close()
			return nil, err
		}
		g.backends = append(g.backends, d)
		members = append(members, cluster.Backend{Name: fmt.Sprintf("backend-%d", i), URL: d.url})
	}
	reg := obs.NewMetrics()
	sinks := obs.Multi{obs.NewSpanMetricsObserver(reg, "gateway")}
	if pr != nil {
		sinks = append(sinks, &pr.gwSpans)
	}
	gw, err := cluster.NewGateway(cluster.Options{
		Backends: members,
		Client: client.Options{
			MaxRetries:  2,
			BaseBackoff: 5 * time.Millisecond,
			Timeout:     10 * time.Second,
			Seed:        1,
			HTTPClient:  &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		},
		Metrics: reg,
		Tracer:  obs.NewTracer(sinks),
	})
	if err != nil {
		g.close()
		return nil, err
	}
	g.gw = gw
	var h http.Handler = gw.Handler()
	if pr != nil {
		h = pr.gwHandler.wrap(h, 0)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.close()
		return nil, err
	}
	g.url = "http://" + ln.Addr().String()
	g.hs = &http.Server{Handler: h}
	go g.hs.Serve(ln)
	return g, nil
}

func (g *gateway) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if g.hs != nil {
		errs = append(errs, g.hs.Shutdown(ctx))
	}
	if g.gw != nil {
		errs = append(errs, g.gw.Drain(ctx))
	}
	for _, d := range g.backends {
		errs = append(errs, d.close())
	}
	return errors.Join(errs...)
}

// listen opens a loopback listener; under a probe it counts accepts.
func listen(pr *probe) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || pr == nil {
		return ln, err
	}
	return &countingListener{Listener: ln, n: &pr.accepts}, nil
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// loadClient is one closed-loop caller: the repository's resilient client
// with default retries and breaker, over its own transport holding one
// persistent connection.
type loadClient struct {
	cl  *client.Client
	reg *obs.Metrics
	tr  *http.Transport
}

func newLoadClient(seed uint64) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	reg := obs.NewMetrics()
	return &loadClient{
		cl:  client.New(client.Options{Seed: seed, Metrics: reg, HTTPClient: &http.Client{Transport: tr}}),
		reg: reg,
		tr:  tr,
	}
}

func (c *loadClient) attempts() int64 { return c.reg.Counter("client.attempts_total").Value() }
