package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSelfcheck runs the full end-to-end smoke in-process: ephemeral port,
// pinned Table-1 /v1/iterate trace, byte-identical cache hit, traces,
// batch, the in-process chaos scenarios, drain.
func TestSelfcheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-selfcheck"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -selfcheck: %v\nstderr: %s", err, stderr.String())
	}
	for _, want := range []string{
		"[ok  ] healthz",
		"[ok  ] /v1/iterate reproduces the pinned Table-1 trace",
		"[ok  ] cache hit is byte-identical to the computed response",
		"[ok  ] metricz reports the cache hit",
		"[ok  ] every request traced: well-formed span trees, stable key half, header matches a root",
		"[ok  ] statusz folds the spans into per-stage latency quantiles",
		"[ok  ] chaos scenario storm: 10 invariants hold",
		"[ok  ] chaos scenario truncate-flood: 10 invariants hold",
		"[ok  ] chaos scenario breaker-trip: 10 invariants hold",
		"[ok  ] chaos scenario panic-isolation: 10 invariants hold",
		"[ok  ] chaos scenario restart-recovery: 7 invariants hold",
		"[ok  ] chaos scenario disk-fault: 9 invariants hold",
		"[ok  ] drained",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestSelfcheckWritesAccessLog checks the -access-log JSONL sink records
// one request_done line per scheduling request, each stamped with the
// request's trace ID.
func TestSelfcheckWritesAccessLog(t *testing.T) {
	path := t.TempDir() + "/requests.jsonl"
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-selfcheck", "-access-log", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// The selfcheck issues three scheduling requests for the pinned body
	// (miss, then two cache hits) and three batch posts; the chaos scenarios
	// run on servers of their own and never reach this log. Panic-500
	// records are pinned by internal/serve's TestPanicIsolation.
	if len(lines) != 6 {
		t.Fatalf("%d access-log lines, want 6 (3 iterate + 3 batch):\n%s", len(lines), data)
	}
	batches := 0
	for _, line := range lines {
		if !strings.Contains(line, `"event":"request_done"`) {
			t.Fatalf("unexpected access-log line: %s", line)
		}
		switch {
		case strings.Contains(line, `"endpoint":"/v1/iterate"`):
		case strings.Contains(line, `"endpoint":"/v1/batch"`):
			// The batch leg's posts land as one request_done each, with the
			// per-item count in the "items" field.
			if !strings.Contains(line, `"items":`) {
				t.Fatalf("batch request_done line lacks an items count: %s", line)
			}
			batches++
		default:
			t.Fatalf("unexpected access-log endpoint: %s", line)
		}
		if !strings.Contains(line, `"trace_id":"`) {
			t.Fatalf("request_done line lacks a trace_id: %s", line)
		}
	}
	if batches != 3 {
		t.Fatalf("%d /v1/batch request_done lines, want exactly 3 (mixed batch + identical replay pair):\n%s", batches, data)
	}
	// Every request gets its own trace: IDs never repeat, even though the
	// repeats share one canonical request key (the sequence half differs).
	ids := map[string]bool{}
	for _, line := range lines {
		_, rest, _ := strings.Cut(line, `"trace_id":"`)
		id, _, _ := strings.Cut(rest, `"`)
		if ids[id] {
			t.Fatalf("trace_id %s repeated across requests:\n%s", id, data)
		}
		ids[id] = true
	}
	if !strings.Contains(lines[0], `"cache":"miss"`) {
		t.Fatalf("first access-log line should be the computed miss:\n%s", data)
	}
	for _, line := range lines[1:] {
		if strings.Contains(line, `"endpoint":"/v1/batch"`) {
			// Batch cache state is per-item inside the envelope; the
			// request-level record carries none unless the whole envelope
			// replayed from cache.
			continue
		}
		if !strings.Contains(line, `"cache":"hit"`) {
			t.Fatalf("every iterate line after the first should be a cache hit: %s", line)
		}
	}
}

// TestFaultInjectFlagValidation pins -fault-inject's fail-fast contract: a
// typo'd spec is an error before any listener opens, and combining it with
// -selfcheck (which replays its own fault scenarios) is refused.
func TestFaultInjectFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-fault-inject", "reject=2.0:503"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-fault-inject") {
		t.Fatalf("bad spec: err = %v, want a -fault-inject parse error", err)
	}
	err = run([]string{"-selfcheck", "-fault-inject", "drop=0.5"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-selfcheck") {
		t.Fatalf("with -selfcheck: err = %v, want a conflict error", err)
	}
}

// TestFlagValueValidation pins the usage-error sweep: nonsensical flag
// values fail fast with a usage-class error (exit 2), before any listener,
// pool or cache is constructed.
func TestFlagValueValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must mention
	}{
		{[]string{"-queue", "-1"}, "-queue"},
		{[]string{"-workers", "-2"}, "-workers"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-drain-timeout", "0s"}, "-drain-timeout"},
		{[]string{"-selfcheck", "-store", t.TempDir()}, "-store"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v): want usage error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err %q, want mention of %q", tc.args, err, tc.want)
		}
		if exitCode(err) != 2 {
			t.Errorf("run(%v): exit code %d, want 2 (usage)", tc.args, exitCode(err))
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v): usage leaked to stdout: %s", tc.args, stdout.String())
		}
	}
	// Runtime failures stay exit 1, and flag-syntax errors are usage.
	if got := exitCode(errOpaque{}); got != 1 {
		t.Errorf("exitCode(runtime error) = %d, want 1", got)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-nope"}, &stdout, &stderr); exitCode(err) != 2 {
		t.Errorf("exitCode(flag parse error) = %d, want 2", exitCode(err))
	}
}

type errOpaque struct{}

func (errOpaque) Error() string { return "runtime failure" }

// TestBadFlags pins the run() error contract: flag errors return an error
// (after usage on stderr) and write nothing to stdout.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-nope"}, &stdout, &stderr); err == nil {
		t.Fatal("run with unknown flag: want error")
	}
	if stdout.Len() != 0 {
		t.Errorf("usage leaked to stdout: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "-addr") {
		t.Errorf("stderr missing usage text: %s", stderr.String())
	}
}

// TestEphemeralAddr pins the embedding contract satellite tools (schedgw
// -local, scripts, tests) rely on: `-addr 127.0.0.1:0` binds an ephemeral
// port, the bound address is printed to stdout in the "listening on" line
// before any request is served, the daemon answers on it, and SIGTERM
// drains cleanly.
func TestEphemeralAddr(t *testing.T) {
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-addr", "127.0.0.1:0"}, pw, &stderr)
		pw.Close()
		done <- err
	}()

	sc := bufio.NewScanner(pr)
	base := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "schedd: listening on "); ok {
			base = rest[:strings.Index(rest, " ")]
			break
		}
	}
	if base == "" {
		t.Fatalf("no listening line before stdout closed; stderr: %s", stderr.String())
	}
	if strings.HasSuffix(base, ":0") {
		t.Fatalf("listening line still carries port 0: %q", base)
	}
	// Keep draining stdout so the daemon's drain messages never block.
	go func() {
		for sc.Scan() {
		}
	}()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET %s/healthz: %v", base, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM; stderr: %s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s of SIGTERM")
	}
}
