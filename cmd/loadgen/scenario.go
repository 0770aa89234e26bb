// Scenario support: named chaos/resilience workloads loaded from JSON
// files (see scenarios/ in the repo root). A scenario bundles a plan
// (mix, seed, sizing), a client behaviour (retry rejected requests
// honouring Retry-After, trickle slow-loris bodies) and a pass/fail
// contract, so a chaos run is one flag (-scenario FILE) and its exit
// status is the verdict.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Scenario is one named chaos workload. Plan fields left zero inherit
// the command-line flags, so a scenario pins only what it cares about.
type Scenario struct {
	Name        string   `json:"name"`
	Mix         string   `json:"mix"`
	N           int      `json:"n"`
	C           int      `json:"c"`
	Seed        int64    `json:"seed"`
	Method      string   `json:"method"`
	Models      []string `json:"models"`
	Batch       int      `json:"batch"`
	ZipfS       float64  `json:"zipf"`
	Consensus   string   `json:"consensus"`
	IngestEvery int      `json:"ingest_every"`
	TimeoutMS   int      `json:"timeout_ms"`

	// RetryRejected re-issues a job whose final status was a retryable
	// rejection (429, 503 or 504), sleeping the server's Retry-After
	// first — bounded by RetryBudget attempts (default 8). A run that
	// retries every rejection until served can digest against a
	// fault-free baseline: only final outcomes enter the digest.
	RetryRejected bool `json:"retry_rejected"`
	RetryBudget   int  `json:"retry_budget"`
	// MaxRetryWaitMS caps how long one Retry-After hint is honoured
	// (0 = sleep the full hint). CI scenarios cap it so a chaos sweep
	// finishes in seconds while still pacing off the server's signal.
	MaxRetryWaitMS int `json:"max_retry_wait_ms"`

	SlowLoris *SlowLorisSpec `json:"slow_loris,omitempty"`
	Contract  Contract       `json:"contract"`
}

// SlowLorisSpec trickles every Every'th verify job's request body one
// byte per ByteDelayMS, so a server -read-timeout can prove it cuts
// slow senders loose instead of pinning a connection indefinitely.
type SlowLorisSpec struct {
	Every       int `json:"every"`
	ByteDelayMS int `json:"byte_delay_ms"`
}

// Contract is the scenario's pass/fail policy over tracked outcomes.
// The base response contract (only 200/202/413-where-expected and
// 429/503/504 with a positive integer Retry-After are legal) always
// applies; the contract tightens it.
type Contract struct {
	// RequireAllServed fails the run unless every job's final outcome —
	// after any retries, excluding slow-loris jobs the server cut —
	// was served.
	RequireAllServed bool `json:"require_all_served"`
	// MaxTransportErrors bounds connection-level failures (timeouts,
	// resets, unexpected EOF) on non-loris jobs. Default 0: any
	// unexpected transport error fails the run.
	MaxTransportErrors int `json:"max_transport_errors"`
}

// check returns the contract violations for a finished run.
func (c *Contract) check(unserved, transportErrs int) []string {
	var v []string
	if c.RequireAllServed && unserved > 0 {
		v = append(v, fmt.Sprintf("contract: %d jobs ended unserved", unserved))
	}
	if transportErrs > c.MaxTransportErrors {
		v = append(v, fmt.Sprintf("contract: %d transport errors (budget %d)", transportErrs, c.MaxTransportErrors))
	}
	return v
}

// loadScenario reads and validates a scenario file.
func loadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseScenario(path, data)
}

// parseScenario decodes and validates one scenario; path names it in
// errors. Unknown fields are an error: a typoed contract key must not
// silently weaken a gate.
func parseScenario(path string, data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("scenario %s: missing name", path)
	}
	if s.N < 0 || s.C < 0 || s.RetryBudget < 0 || s.MaxRetryWaitMS < 0 || s.TimeoutMS < 0 {
		return nil, fmt.Errorf("scenario %s: negative sizing field", path)
	}
	if s.Contract.MaxTransportErrors < 0 {
		return nil, fmt.Errorf("scenario %s: negative max_transport_errors", path)
	}
	if sl := s.SlowLoris; sl != nil && (sl.Every < 1 || sl.ByteDelayMS < 1) {
		return nil, fmt.Errorf("scenario %s: slow_loris wants every >= 1 and byte_delay_ms >= 1", path)
	}
	return &s, nil
}

// retryBudget is the bounded number of re-issues per rejected job.
func (s *Scenario) retryBudget() int {
	if s.RetryBudget > 0 {
		return s.RetryBudget
	}
	return 8
}

// retryWait converts a server Retry-After hint (seconds) into the pause
// before the next attempt, honouring the scenario's cap.
func (s *Scenario) retryWait(raSeconds int) time.Duration {
	d := time.Duration(raSeconds) * time.Second
	if s.MaxRetryWaitMS > 0 {
		if cap := time.Duration(s.MaxRetryWaitMS) * time.Millisecond; d > cap {
			d = cap
		}
	}
	return d
}

// markLoris flags every Every'th verify job as a slow-loris sender.
// Consensus, ingest and probe jobs are skipped: the loris contract is
// about request-body reads, and only verify jobs carry one here.
func markLoris(jobs []job, every int) int {
	marked := 0
	seen := 0
	for i := range jobs {
		if len(jobs[i].reqs) == 0 {
			continue
		}
		seen++
		if seen%every == 0 {
			jobs[i].loris = true
			marked++
		}
	}
	return marked
}

// classifyTransport buckets a connection-level error into a tracked
// outcome class, so chaos scenarios can budget them instead of aborting
// on the first reset.
func classifyTransport(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	if errors.Is(err, syscall.ECONNRESET) {
		return "reset"
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return "refused"
	}
	s := err.Error()
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF) || strings.Contains(s, "EOF"):
		return "eof"
	case strings.Contains(s, "connection reset"):
		return "reset"
	case strings.Contains(s, "connection refused"):
		return "refused"
	case strings.Contains(s, "timeout") || strings.Contains(s, "deadline"):
		return "timeout"
	}
	return "other"
}

// retryAfterOf parses a retryable rejection's Retry-After header. The
// contract demands a positive integer second count — a 429/503/504
// without a usable pacing hint is a violation, not a rejection.
func retryAfterOf(h string) (int, error) {
	n, err := strconv.Atoi(h)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("missing or invalid Retry-After %q (want positive integer seconds)", h)
	}
	return n, nil
}

// trickleReader yields its payload one byte per Read, sleeping between
// bytes — a well-formed request sent maliciously slowly.
type trickleReader struct {
	data  []byte
	delay time.Duration
}

func (t *trickleReader) Read(p []byte) (int, error) {
	if len(t.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(t.delay)
	p[0] = t.data[0]
	t.data = t.data[1:]
	return 1, nil
}
