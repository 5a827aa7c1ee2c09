// Package fleettrace is distributed tracing for the sweep service fleet:
// a W3C-traceparent-style trace context minted by the coordinator — one
// trace ID per sweep, one span ID per point attempt — propagated over the
// specv1 wire to fleet workers and into per-run artifacts, plus the record
// type of the coordinator journal, which is the fleet span log: every
// point's path through the scheduler (attempt k on a worker, retry with
// cause, steal, settle), rendered as a single Perfetto timeline with one
// thread per worker, one slice per attempt and instant events for retries
// and steals.
//
// IDs are minted deterministically from the sweep ID and point/attempt
// indices, so a restarted coordinator resumes a sweep under the same trace
// ID and the journal need not store them.
package fleettrace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Context is one span's trace context: the sweep-wide trace ID (16 bytes,
// 32 hex chars) and this span's ID (8 bytes, 16 hex chars), carried on the
// wire in W3C traceparent form.
type Context struct {
	TraceID string
	SpanID  string
}

// Traceparent renders the context in W3C traceparent form:
// "00-<trace-id>-<span-id>-01" (version 00, sampled flag set).
func (c Context) Traceparent() string {
	return "00-" + c.TraceID + "-" + c.SpanID + "-01"
}

// IsZero reports an unset context.
func (c Context) IsZero() bool { return c.TraceID == "" && c.SpanID == "" }

// Parse decodes a traceparent string produced by Traceparent (or any
// version-00 W3C traceparent).
func Parse(s string) (Context, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 {
		return Context{}, fmt.Errorf("fleettrace: traceparent %q: want 4 dash-separated fields, got %d", s, len(parts))
	}
	if parts[0] != "00" {
		return Context{}, fmt.Errorf("fleettrace: traceparent %q: unsupported version %q", s, parts[0])
	}
	if len(parts[1]) != 32 || !isHex(parts[1]) {
		return Context{}, fmt.Errorf("fleettrace: traceparent %q: trace ID is not 32 hex chars", s)
	}
	if len(parts[2]) != 16 || !isHex(parts[2]) {
		return Context{}, fmt.Errorf("fleettrace: traceparent %q: span ID is not 16 hex chars", s)
	}
	return Context{TraceID: parts[1], SpanID: parts[2]}, nil
}

func isHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// MintTraceID derives the sweep's trace ID from its sweep ID. Deterministic:
// a coordinator restarted mid-sweep resumes the sweep under the same trace.
func MintTraceID(sweepID string) string {
	sum := sha256.Sum256([]byte("flexsweep-trace:" + sweepID))
	return hex.EncodeToString(sum[:16])
}

// MintSpanID derives a span ID within a trace. Attempt 0 is the point's
// root span (queued -> terminal); attempts 1.. are execution attempts,
// children of the root.
func MintSpanID(traceID string, point, attempt int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("flexsweep-span:%s:%d:%d", traceID, point, attempt)))
	return hex.EncodeToString(sum[:8])
}

// PointContext returns the root span context of one point.
func PointContext(traceID string, point int) Context {
	return Context{TraceID: traceID, SpanID: MintSpanID(traceID, point, 0)}
}

// AttemptContext returns the span context of one execution attempt
// (attempt >= 1).
func AttemptContext(traceID string, point, attempt int) Context {
	return Context{TraceID: traceID, SpanID: MintSpanID(traceID, point, attempt)}
}
