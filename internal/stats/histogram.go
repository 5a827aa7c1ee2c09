package stats

// Latency histograms with approximate percentiles. Deadlocks and recovery
// produce heavy latency tails that a mean hides; the engine records every
// delivered message's latency in a log-scaled histogram (2% worst-case
// relative error per bucket boundary) from which p50/p95/p99/max are
// derived.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"flexsim/internal/jsonlog"
)

// Histogram is a log-bucketed histogram of non-negative integer samples.
// The zero value is ready to use.
type Histogram struct {
	counts []int64
	total  int64
	sum    int64
	max    int64
}

// growth is the bucket boundary ratio: ~4% wide buckets (2% error).
const growth = 1.04

// bucketOf maps a sample to its bucket index: 0..63 directly, log-scaled
// above.
func bucketOf(v int64) int {
	if v < 64 {
		return int(v)
	}
	return 64 + int(math.Log(float64(v)/64)/math.Log(growth))
}

// boundOf returns a representative (upper-bound) value for bucket b.
func boundOf(b int) int64 {
	if b < 64 {
		return int64(b)
	}
	return int64(64 * math.Pow(growth, float64(b-63)))
}

// Observe records one sample; negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		grown := make([]int64, b+16)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Grow pre-allocates bucket storage to cover samples up to max, so
// subsequent Observe calls for values <= max perform no heap allocation
// (hot-path instrumentation, e.g. detector pass timing).
func (h *Histogram) Grow(max int64) {
	if max < 0 {
		return
	}
	b := bucketOf(max)
	if b >= len(h.counts) {
		grown := make([]int64, b+16)
		copy(grown, h.counts)
		h.counts = grown
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the exact sum of the samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the exact sample mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the exact maximum sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an approximation of the q-quantile (q in [0,1]); the
// result is exact below 64 and within ~4% above.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.total-1))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			v := boundOf(b)
			if v > h.max {
				return h.max
			}
			return v
		}
	}
	return h.max
}

// trimmed returns counts without its trailing empty buckets.
func trimmed(counts []int64) []int64 {
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return counts
}

// Merge adds other's samples into h. Only other's occupied range is
// copied, so merging into a zero Histogram yields a copy no larger than
// its samples need, however far other was pre-grown.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	counts := trimmed(other.counts)
	if len(counts) > len(h.counts) {
		grown := make([]int64, len(counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for b, c := range counts {
		h.counts[b] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// histogramJSON is the wire form of a Histogram (the result cache persists
// full Results as JSON).
type histogramJSON struct {
	Counts []int64 `json:"counts,omitempty"`
	Total  int64   `json:"total,omitempty"`
	Sum    int64   `json:"sum,omitempty"`
	Max    int64   `json:"max,omitempty"`
}

// MarshalJSON encodes the histogram canonically: trailing empty buckets are
// trimmed so that Grow pre-allocation never changes the encoding and a
// decode/re-encode round trip is byte-identical.
func (h Histogram) MarshalJSON() ([]byte, error) { return h.AppendJSON(nil) }

// AppendJSON appends MarshalJSON's bytes (jsonlog.Appender).
func (h Histogram) AppendJSON(b []byte) ([]byte, error) {
	return jsonlog.Append(b, &histogramJSON{Counts: trimmed(h.counts), Total: h.total, Sum: h.sum, Max: h.max})
}

// UnmarshalJSON decodes a histogram. The form MarshalJSON emits,
//
//	{"counts":[i,...],"total":i,"sum":i,"max":i}
//
// — every member optional but in that order, counts non-empty, no
// whitespace, each i a JSON integer within int64 — is parsed in one pass
// with counts allocated at its final size: a stored Result holds three of
// these and they are most of its decode. Any other input goes to
// encoding/json unchanged, so the accepted language, the decoded value and
// the errors are encoding/json's.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	w, ok := parseCanonical(b)
	if !ok {
		w = histogramJSON{}
		if err := json.Unmarshal(b, &w); err != nil {
			return err
		}
	}
	h.counts, h.total, h.sum, h.max = w.Counts, w.Total, w.Sum, w.Max
	return nil
}

// ReadJSON reads the histogram b starts with in the form described at
// UnmarshalJSON (jsonlog.Reader), without encoding/json.
func (h *Histogram) ReadJSON(b []byte) int {
	n := bytes.IndexByte(b, '}') + 1 // a canonical histogram nests nothing
	w, ok := parseCanonical(b[:n])
	if !ok {
		return -1
	}
	h.counts, h.total, h.sum, h.max = w.Counts, w.Total, w.Sum, w.Max
	return n
}

// zeroRun is the bytes "0,0,0,0," read as a little-endian word: four empty
// buckets, none of them the last.
const zeroRun = 0x2c302c302c302c30

// parseCanonical parses the form described at UnmarshalJSON, reporting
// false for anything outside it.
func parseCanonical(b []byte) (w histogramJSON, ok bool) {
	b, ok = bytes.CutPrefix(b, []byte("{"))
	if !ok {
		return w, false
	}
	first := true // no member read yet, so the next has no leading comma
	if rest, found := bytes.CutPrefix(b, []byte(`"counts":[`)); found {
		end := bytes.IndexByte(rest, ']')
		if end < 0 {
			return w, false
		}
		w.Counts = make([]int64, bytes.Count(rest[:end], []byte{','})+1)
		for i := 0; i < len(w.Counts); i++ {
			// Most buckets are empty: four of them are one word. The word
			// ends in a comma, so a fifth element follows (len(w.Counts)
			// counted the commas), and make has zeroed the four already.
			for len(rest) >= 8 && binary.LittleEndian.Uint64(rest) == zeroRun {
				i, rest = i+4, rest[8:]
			}
			if len(rest) > 1 && rest[0]-'0' <= 9 && (rest[1] == ',' || rest[1] == ']') { // one digit: most of the rest
				w.Counts[i], rest = int64(rest[0]-'0'), rest[1:]
			} else if w.Counts[i], rest, ok = jsonlog.CutInt(rest); !ok {
				return w, false
			}
			stop := byte(',')
			if i == len(w.Counts)-1 {
				stop = ']'
			}
			if len(rest) == 0 || rest[0] != stop {
				return w, false
			}
			rest = rest[1:]
		}
		b, first = rest, false
	}
	for _, m := range [...]struct {
		key string
		dst *int64
	}{{`,"total":`, &w.Total}, {`,"sum":`, &w.Sum}, {`,"max":`, &w.Max}} {
		key := m.key
		if first {
			key = key[1:]
		}
		rest, found := bytes.CutPrefix(b, []byte(key))
		if !found {
			continue
		}
		if *m.dst, b, ok = jsonlog.CutInt(rest); !ok {
			return w, false
		}
		first = false
	}
	return w, len(b) == 1 && b[0] == '}'
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "no samples"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max)
	return b.String()
}
