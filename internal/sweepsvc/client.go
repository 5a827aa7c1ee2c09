package sweepsvc

// Client is the coordinator's API from the outside — what sweepctl (and the
// integration tests) speak. Every payload is strict specv1, so skew between
// client and coordinator fails loudly at the boundary.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"flexsim/internal/api/specv1"
)

// Client talks to a sweep coordinator.
type Client struct {
	// Base is the coordinator's base URL ("http://host:port").
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string { return strings.TrimRight(c.Base, "/") + path }

// checkStatus turns a non-2xx response into an error carrying the body.
func checkStatus(resp *http.Response, want int) error {
	if resp.StatusCode == want {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("sweepd: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
}

// Submit posts a sweep spec and returns the accepted sweep's status.
func (c *Client) Submit(ctx context.Context, spec *specv1.Spec) (*specv1.SweepStatus, error) {
	var body bytes.Buffer
	if err := specv1.EncodeSpec(&body, spec); err != nil {
		return nil, err
	}
	return call(ctx, c, http.MethodPost, "/api/v1/sweeps", &body, http.StatusCreated, specv1.DecodeStatus)
}

// Status fetches one sweep's progress.
func (c *Client) Status(ctx context.Context, id string) (*specv1.SweepStatus, error) {
	return call(ctx, c, http.MethodGet, "/api/v1/sweeps/"+id, nil, http.StatusOK, specv1.DecodeStatus)
}

// List fetches the coordinator's sweep index.
func (c *Client) List(ctx context.Context) (*specv1.SweepList, error) {
	return call(ctx, c, http.MethodGet, "/api/v1/sweeps", nil, http.StatusOK, specv1.DecodeList)
}

// Results fetches a sweep's settled points (with result payloads).
func (c *Client) Results(ctx context.Context, id string) ([]specv1.PointResult, error) {
	return call(ctx, c, http.MethodGet, "/api/v1/sweeps/"+id+"/results", nil, http.StatusOK, specv1.ReadResults)
}

// call sends one request (a JSON body, or none) and decodes the answer's body
// with one of specv1's strict decoders.
func call[T any](ctx context.Context, c *Client, method, path string, body io.Reader, want int, decode func(io.Reader) (T, error)) (v T, err error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return v, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp, want); err != nil {
		return v, err
	}
	if v, err = decode(resp.Body); err != nil {
		err = fmt.Errorf("sweepd: decode %s: %w", path, err)
	}
	return v, err
}

// Watch subscribes to a sweep's SSE stream, invoking fn for every event
// until the terminal done event (returning nil), the callback errors, or
// the stream/context ends. A stream that closes before the done event is an
// error (the coordinator went away).
func (c *Client) Watch(ctx context.Context, id string, fn func(ev *specv1.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/api/v1/sweeps/"+id+"/events"), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp, http.StatusOK); err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && len(data) > 0:
			ev, err := specv1.DecodeEvent(data)
			data = data[:0]
			if err != nil {
				return err
			}
			if fn != nil {
				if err := fn(ev); err != nil {
					return err
				}
			}
			if ev.Type == "done" {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sweepd: event stream: %w", err)
	}
	return fmt.Errorf("sweepd: event stream ended before the sweep finished")
}
