package main

import "time"

// serveCounters are the serve.* counters the per-layer ratios need, summed
// over every daemon of a stack.
type serveCounters struct {
	requests, hits, misses, diskHits, diskDrops int64
}

func serveCounts(st *stack) serveCounters {
	var c serveCounters
	for _, d := range st.daemons {
		m := d.srv.Metrics()
		c.requests += m.Counter("serve.requests_total").Value()
		c.hits += m.Counter("serve.cache_hits").Value()
		c.misses += m.Counter("serve.cache_misses").Value()
		c.diskHits += m.Counter("serve.disk_hits").Value()
		c.diskDrops += m.Counter("serve.disk_write_drops").Value()
	}
	return c
}

// layers holds a traced run's readings. Layer times are totals over the
// traced phase divided by the requests the clients completed in it, so the
// attributed layer times and budget.unattributed_us add up to the client's
// mean latency.
type layers struct {
	gateway       bool
	plain, traced phaseResult
	p0, p1        probeSnap
	c0, c1        serveCounters
	openMS        float64
	timeWait      int64
	engine        time.Duration
}

func (l *layers) metrics() map[string]metric {
	n := float64(l.traced.ops)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	gw := func(name string) int64 { return l.p1.gwSpans[name] - l.p0.gwSpans[name] }
	srv := func(name string) int64 { return l.p1.srvSpans[name] - l.p0.srvSpans[name] }
	gwNS, srvNS := l.p1.gwNS-l.p0.gwNS, l.p1.srvNS-l.p0.srvNS
	gwSelf := gwNS - gw("backend_wait")
	var share float64
	var all, top int64
	for i := range l.p1.perBackend {
		k := l.p1.perBackend[i] - l.p0.perBackend[i]
		all += k
		top = max(top, k)
	}
	if l.gateway {
		share = ratio(top, all)
	}
	gets := l.p1.gets - l.p0.gets
	clientMean := l.traced.meanMS() * 1e3
	attributed := us(srvNS)
	if l.gateway {
		attributed += us(gwSelf)
	}
	reqs := l.c1.requests - l.c0.requests
	m := map[string]metric{
		"client.attempts_per_req": {float64(l.traced.attempts) / n, "count"},

		"cluster.handler_us":            {us(gwNS), "us"},
		"cluster.route_us":              {us(gw("route")), "us"},
		"cluster.backend_wait_us":       {us(gw("backend_wait")), "us"},
		"cluster.write_us":              {us(gw("write")), "us"},
		"cluster.self_us":               {us(gwSelf), "us"},
		"cluster.backend_conns_per_req": {0, "count"},
		"cluster.max_backend_share":     {share, "ratio"},

		"serve.handler_us":             {us(srvNS), "us"},
		"serve.decode_us":              {us(srv("decode")), "us"},
		"serve.validate_us":            {us(srv("validate")), "us"},
		"serve.cache_lookup_us":        {us(srv("cache_lookup")), "us"},
		"serve.disk_lookup_us":         {us(srv("disk_lookup")), "us"},
		"serve.queue_wait_us":          {us(srv("queue_wait")), "us"},
		"serve.compute_us":             {us(srv("compute")), "us"},
		"serve.marshal_us":             {us(srv("marshal")), "us"},
		"serve.write_us":               {us(srv("write")), "us"},
		"serve.hit_ratio":              {ratio(l.c1.hits-l.c0.hits, reqs), "ratio"},
		"serve.disk_hit_ratio":         {ratio(l.c1.diskHits-l.c0.diskHits, reqs), "ratio"},
		"serve.disk_write_drops_ratio": {ratio(l.c1.diskDrops-l.c0.diskDrops, l.c1.misses-l.c0.misses), "ratio"},

		"store.get_us":               {us(l.p1.getNS - l.p0.getNS), "us"},
		"store.put_us":               {us(l.p1.putNS - l.p0.putNS), "us"},
		"store.disk_reads_per_get":   {ratio(l.p1.diskReads-l.p0.diskReads, gets), "count"},
		"store.bloom_negative_ratio": {ratio(l.p1.bloomNeg-l.p0.bloomNeg, gets), "ratio"},
		"store.open_ms":              {l.openMS, "ms"},

		"engine.iterate_us": {float64(l.engine) / 1e3, "us"},

		"runtime.gc_cycles_per_kreq": {1e3 * float64(l.plain.proc.gcCycles) / float64(l.plain.ops), "count"},
		"runtime.gc_cpu_pct":         {l.plain.proc.gcCPUPct, "%"},
		"runtime.sched_wait_p90_us":  {float64(l.plain.proc.schedWaitP90) / 1e3, "us"},

		"obs.trace_overhead_pct": {100 * (quantile(append([]float64(nil), l.traced.latMS...), 0.5)/quantile(append([]float64(nil), l.plain.latMS...), 0.5) - 1), "%"},

		"host.steal_pct":          {l.plain.proc.stealPct, "%"},
		"host.tcp_timewait_start": {float64(l.timeWait), "count"},

		"budget.client_mean_us":  {clientMean, "us"},
		"budget.unattributed_us": {clientMean - attributed, "us"},
	}
	if l.gateway {
		m["cluster.backend_conns_per_req"] = metric{ratio(l.p1.accepts-l.p0.accepts, l.traced.ops), "count"}
	}
	return m
}
