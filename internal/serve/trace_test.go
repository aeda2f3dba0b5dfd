package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// tracedServer builds a server whose spans land in the returned collector
// and whose access log lands in the returned log collector.
func tracedServer(opts Options) (*Server, *obs.Collector, *obs.Collector) {
	spans, log := &obs.Collector{}, &obs.Collector{}
	opts.Tracer = obs.NewTracer(spans)
	opts.Observer = log
	return NewServer(opts), spans, log
}

// spansFor filters collected events down to the spans of one trace.
func spansFor(col *obs.Collector, traceID string) []obs.Span {
	var out []obs.Span
	for _, e := range col.Events() {
		if sp, ok := e.(obs.Span); ok && sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	return out
}

func stageNames(spans []obs.Span) map[string]bool {
	names := map[string]bool{}
	for _, sp := range spans {
		if sp.ParentID != 0 {
			names[sp.Name] = true
		}
	}
	return names
}

// TestTraceSpanTreePerRequest drives a miss and then a hit through a traced
// server and checks both span trees: stage coverage, root annotations, the
// X-Schedd-Trace echo, and the trace-ID structure (same canonical key ⇒
// same key half; distinct arrivals ⇒ distinct sequence half).
func TestTraceSpanTreePerRequest(t *testing.T) {
	s, spans, log := tracedServer(Options{})
	defer drain(t, s)

	recMiss := post(s, "/v1/iterate", iterateBody("min-min", "det", 1))
	recHit := post(s, "/v1/iterate", iterateBody("min-min", "det", 1))
	if recMiss.Code != http.StatusOK || recHit.Code != http.StatusOK {
		t.Fatalf("statuses %d, %d", recMiss.Code, recHit.Code)
	}
	idMiss := recMiss.Header().Get(TraceHeader)
	idHit := recHit.Header().Get(TraceHeader)
	if idMiss == "" || idHit == "" {
		t.Fatal("response missing X-Schedd-Trace")
	}
	if idMiss == idHit {
		t.Fatalf("distinct arrivals share trace ID %s", idMiss)
	}
	keyOf := func(id string) string { return strings.SplitN(id, "-", 2)[0] }
	if keyOf(idMiss) != keyOf(idHit) {
		t.Fatalf("identical requests differ in key half: %s vs %s", idMiss, idHit)
	}

	sum := obs.SummarizeSpans(toSpans(spans))
	if !sum.WellFormed() {
		t.Fatalf("span stream malformed: %v", sum.Malformed)
	}
	if sum.Traces != 2 || sum.Roots != 2 {
		t.Fatalf("traces/roots = %d/%d, want 2/2", sum.Traces, sum.Roots)
	}

	miss := spansFor(spans, idMiss)
	for _, want := range []string{"decode", "validate", "cache_lookup", "queue_wait", "compute", "marshal", "write"} {
		if !stageNames(miss)[want] {
			t.Fatalf("miss trace lacks stage %q: %v", want, stageNames(miss))
		}
	}
	hit := spansFor(spans, idHit)
	if names := stageNames(hit); !names["cache_lookup"] || names["compute"] {
		t.Fatalf("hit trace stages wrong: %v", names)
	}
	root := miss[0]
	if root.ParentID != 0 || root.Status != http.StatusOK || root.Cache != "miss" || root.Endpoint != "/v1/iterate" {
		t.Fatalf("miss root wrong: %+v", root)
	}
	if hit[0].Cache != "hit" {
		t.Fatalf("hit root cache %q, want hit", hit[0].Cache)
	}

	// The access log carries the same trace IDs, joining logs to spans.
	var logged []string
	for _, e := range log.Events() {
		if rd, ok := e.(obs.RequestDone); ok {
			logged = append(logged, rd.TraceID)
		}
	}
	if len(logged) != 2 || logged[0] != idMiss || logged[1] != idHit {
		t.Fatalf("access-log trace IDs %v, want [%s %s]", logged, idMiss, idHit)
	}

	// Store-backed: a miss consults the disk tier before it computes, and
	// once the body is written behind, a disk hit carries disk_lookup and
	// no compute. The LRU is off so the repeat reaches the disk tier.
	st := openStore(t, t.TempDir())
	ds, dspans, _ := tracedServer(Options{Store: st, CacheEntries: -1})
	defer func() {
		drain(t, ds)
		st.Close()
	}()
	recMiss = post(ds, "/v1/iterate", iterateBody("min-min", "det", 1))
	waitFor(t, "write-behind flush", func() bool { return st.Len() == 1 })
	recDisk := post(ds, "/v1/iterate", iterateBody("min-min", "det", 1))
	if c := recDisk.Header().Get("X-Schedd-Cache"); recMiss.Code != http.StatusOK || c != "disk" {
		t.Fatalf("store-backed statuses %d, %d; repeat cache %q, want disk", recMiss.Code, recDisk.Code, c)
	}
	if names := stageNames(spansFor(dspans, recMiss.Header().Get(TraceHeader))); !names["disk_lookup"] || !names["compute"] {
		t.Fatalf("store-backed miss stages %v, want disk_lookup and compute", names)
	}
	if names := stageNames(spansFor(dspans, recDisk.Header().Get(TraceHeader))); !names["disk_lookup"] || names["compute"] {
		t.Fatalf("disk hit stages %v, want disk_lookup and no compute", names)
	}
}

func toSpans(col *obs.Collector) []obs.Span {
	var out []obs.Span
	for _, e := range col.Events() {
		if sp, ok := e.(obs.Span); ok {
			out = append(out, sp)
		}
	}
	return out
}

// TestTraceRemotePropagation: an inbound X-Schedd-Trace header lands on the
// server root span's Remote field.
func TestTraceRemotePropagation(t *testing.T) {
	s, spans, _ := tracedServer(Options{})
	defer drain(t, s)
	req := httptest.NewRequest(http.MethodPost, "/v1/iterate", strings.NewReader(iterateBody("min-min", "det", 3)))
	req.Header.Set(TraceHeader, "cafebabe-00000001")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	all := toSpans(spans)
	if len(all) == 0 || all[0].ParentID != 0 {
		t.Fatalf("no root span emitted: %+v", all)
	}
	if all[0].Remote != "cafebabe-00000001" {
		t.Fatalf("root remote %q, want the inbound header", all[0].Remote)
	}
}

// TestTraceRejectedRequestStillEmits: requests that fail validation — or
// never parse at all — still produce exactly one well-formed span tree with
// the error status on the root, and still echo a trace ID.
func TestTraceRejectedRequestStillEmits(t *testing.T) {
	s, spans, _ := tracedServer(Options{})
	defer drain(t, s)

	rec := post(s, "/v1/iterate", `{"etc":[[-1]],"heuristic":"min-min"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", rec.Code)
	}
	if rec.Header().Get(TraceHeader) == "" {
		t.Fatal("rejected request missing X-Schedd-Trace")
	}
	rec = post(s, "/v1/iterate", "{not json")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}

	sum := obs.SummarizeSpans(toSpans(spans))
	if !sum.WellFormed() {
		t.Fatalf("span stream malformed: %v", sum.Malformed)
	}
	if sum.Traces != 2 || sum.Roots != 2 {
		t.Fatalf("traces/roots = %d/%d, want 2/2", sum.Traces, sum.Roots)
	}
	all := toSpans(spans)
	if all[0].Status != http.StatusUnprocessableEntity {
		t.Fatalf("422 root status %d", all[0].Status)
	}
}

// TestTracePanicEmitsUnfinishedSpan: a panicking compute still finishes its
// trace — the compute span is force-closed and marked unfinished, the root
// carries the 500.
func TestTracePanicEmitsUnfinishedSpan(t *testing.T) {
	s, spans, _ := tracedServer(Options{
		PanicTrigger: func(seed uint64) {
			if seed == 7 {
				panic("test panic")
			}
		},
	})
	defer drain(t, s)
	rec := post(s, "/v1/iterate", iterateBody("min-min", "det", 7))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	sum := obs.SummarizeSpans(toSpans(spans))
	if !sum.WellFormed() {
		t.Fatalf("span stream malformed: %v", sum.Malformed)
	}
	var rootStatus int
	unfinished := false
	for _, sp := range toSpans(spans) {
		if sp.ParentID == 0 {
			rootStatus = sp.Status
		}
		if sp.Name == "compute" && sp.Unfinished {
			unfinished = true
		}
	}
	if rootStatus != http.StatusInternalServerError {
		t.Fatalf("root status %d, want 500", rootStatus)
	}
	if !unfinished {
		t.Fatal("panicked compute span not emitted as unfinished")
	}
}

// TestTracingKeepsBodiesByteIdentical pins the core constraint: enabling
// tracing changes headers and logs, never response bytes — computed, cached
// or traced-off.
func TestTracingKeepsBodiesByteIdentical(t *testing.T) {
	plain := NewServer(Options{})
	defer drain(t, plain)
	traced, _, _ := tracedServer(Options{})
	defer drain(t, traced)

	body := iterateBody("sufferage", "random", 42)
	want := post(plain, "/v1/iterate", body).Body.String()
	gotMiss := post(traced, "/v1/iterate", body).Body.String()
	gotHit := post(traced, "/v1/iterate", body).Body.String()
	if gotMiss != want || gotHit != want {
		t.Fatal("tracing changed response bytes")
	}
}

// TestStatusz: per-stage quantiles, cache ratio and gauges over a live
// server whose tracer feeds a span-metrics observer into its own registry.
func TestStatusz(t *testing.T) {
	reg := obs.NewMetrics()
	s := NewServer(Options{
		Metrics: reg,
		Tracer:  obs.NewTracer(obs.NewSpanMetricsObserver(reg, "serve")),
	})
	defer drain(t, s)

	post(s, "/v1/iterate", iterateBody("min-min", "det", 1)) // miss
	post(s, "/v1/iterate", iterateBody("min-min", "det", 1)) // hit

	rec := do(s, http.MethodGet, "/statusz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var st statusState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// The /statusz request itself is not a scheduling arrival.
	if st.RequestsTotal != 2 || st.Responses2xx != 2 {
		t.Fatalf("requests/2xx = %d/%d, want 2/2", st.RequestsTotal, st.Responses2xx)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheHitRatio != 0.5 {
		t.Fatalf("cache %d/%d ratio %g, want 1/1 ratio 0.5", st.CacheHits, st.CacheMisses, st.CacheHitRatio)
	}
	if _, ok := st.Gauges["serve.inflight"]; !ok {
		t.Fatalf("gauges missing serve.inflight: %v", st.Gauges)
	}
	if st.LatencyMS.Count != 2 {
		t.Fatalf("latency count %d, want 2", st.LatencyMS.Count)
	}
	stages := map[string]int{}
	for _, row := range st.Stages {
		stages[row.Name] = row.Count
	}
	if stages["compute"] != 1 || stages["decode"] != 2 || stages["write"] != 2 {
		t.Fatalf("stage counts wrong: %v", stages)
	}
	if rec := do(s, http.MethodPost, "/statusz", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /statusz = %d, want 405", rec.Code)
	}
}
