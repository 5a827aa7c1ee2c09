package sweepsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/obs"
)

// TestClientRoundTrip drives a coordinator end to end over HTTP: submit via
// Client, watch the SSE stream to clean termination, then fetch status,
// results and the sweep list — the exact path sweepctl and the CI smoke job
// use.
func TestClientRoundTrip(t *testing.T) {
	s, err := New(Config{Cache: openCache(t, t.TempDir()), LocalWorkers: 2, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := obs.Serve("127.0.0.1:0", obs.WithHandler("/api/v1/", s.APIHandler()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &Client{Base: "http://" + srv.Addr()}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, testSpec("roundtrip", 4))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 4 {
		t.Fatalf("submitted status: %+v", st)
	}

	// Watch must terminate cleanly on the done event, not hang or error.
	var events, doneEvents int
	if err := c.Watch(ctx, st.ID, func(ev *specv1.Event) error {
		events++
		if ev.Type == "done" {
			doneEvents++
			if ev.Stat == nil || ev.Stat.State != specv1.SweepDone {
				t.Errorf("done event stat: %+v", ev.Stat)
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if doneEvents != 1 || events < 1 {
		t.Fatalf("watch saw %d events, %d done", events, doneEvents)
	}

	st, err = c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != specv1.SweepDone || st.Done != 4 {
		t.Fatalf("final status: %+v", st)
	}

	results, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, pr := range results {
		if pr.Status != specv1.StatusDone || len(pr.Result) == 0 || pr.Key == "" {
			t.Fatalf("result: %+v", pr)
		}
	}

	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}

	// Unknown sweep ids are clean 404s through every read path.
	if _, err := c.Status(ctx, "nope"); err == nil {
		t.Fatal("status of unknown sweep succeeded")
	}
	if err := c.Watch(ctx, "nope", nil); err == nil {
		t.Fatal("watch of unknown sweep succeeded")
	}
}

// TestClientDecodesStrictly: skew fails at the boundary in both directions —
// the client refuses a status or an index from another schema version, with a
// member it does not know, or with anything after it, exactly as the
// coordinator refuses such a spec.
func TestClientDecodesStrictly(t *testing.T) {
	status := `{"schema_version":1,"id":"s1","state":"done","points_total":1,"points_done":1,"points_cached":0,"points_failed":0,"points_cancelled":0,"points_running":0,"points_pending":0}`
	for name, body := range map[string]string{
		"another version": strings.Replace(status, `"schema_version":1`, `"schema_version":2`, 1),
		"no version":      strings.Replace(status, `"schema_version":1,`, ``, 1),
		"unknown member":  strings.Replace(status, `"id":"s1"`, `"id":"s1","eta_s":3`, 1),
		"trailing":        status + "}",
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.WriteHeader(http.StatusCreated)
			}
			out := body
			if r.URL.Path == "/api/v1/sweeps" && r.Method == http.MethodGet {
				out = `{"schema_version":1,"sweeps":[` + body + `]}`
			}
			io.WriteString(w, out)
		}))
		c := &Client{Base: srv.URL}
		if st, err := c.Submit(context.Background(), testSpec("strict", 1)); err == nil {
			t.Errorf("%s: Submit accepted %+v", name, st)
		}
		if st, err := c.Status(context.Background(), "s1"); err == nil {
			t.Errorf("%s: Status accepted %+v", name, st)
		}
		if list, err := c.List(context.Background()); err == nil {
			t.Errorf("%s: List accepted %+v", name, list)
		}
		srv.Close()
	}
}

// TestSpliceMatchesJSON: the worker's response is written around the result's
// own bytes; what goes on the wire must be what json.Encoder sends — every
// omitempty member either way, names and errors that need escaping, payloads
// that must be compacted or HTML-escaped — and the body must stay empty
// exactly when the encoder would have refused the payload.
func TestSpliceMatchesJSON(t *testing.T) {
	texts := []string{"", "w1", "127.0.0.1:8611", `quo"te`, "naïve", "<a&b>", "run panicked: x\n\tat y", "bad\xff"}
	payloads := []string{"", `{"x":1}`, `{ "x" : 1 }`, "{\"x\":\"a b\"}\n", `{"x":"<b>&"}`, `{"x":"\u2028"}`, "{\"x\":\"\u2028\"}", `{"x":"\""}`,
		"{\"x\":\"raw\nnewline\"}", `null`, `{"a":tru}`, `{"x":1}}`}
	for i, text := range texts {
		for j, payload := range payloads {
			resp := specv1.RunResponse{SchemaVersion: specv1.Version, Status: specv1.Status(texts[(i+1)%len(texts)]), Worker: text,
				Persisted: (i+j)%2 == 0, Trace: texts[(i+j)%len(texts)], Error: texts[(i+2*j)%len(texts)], Result: json.RawMessage(payload)}
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			want.Header().Set("Content-Type", "application/json")
			want.WriteHeader(200)
			json.NewEncoder(want).Encode(&resp)
			writeJSON(got, 200, &resp)
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("writeJSON(%+v) = %d %v %q; json.Encoder %d %v %q", resp,
					got.Code, got.Header(), got.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
			}
		}
	}
}

// blanks is an endless stream of JSON whitespace: a body of it is refused
// by its length or not at all.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// postBlanks posts n blanks, with or without saying how many are coming.
func postBlanks(h http.Handler, path string, n int64, declared bool) int {
	req := httptest.NewRequest("POST", path, io.LimitReader(blanks{}, n))
	if declared {
		req.ContentLength = n
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestSubmitBodyBounded: a spec that declares more than maxSpecBytes is 413
// before a byte of it is read (the body here would be 64 MiB in memory).
func TestSubmitBodyBounded(t *testing.T) {
	s, err := New(Config{Cache: openCache(t, t.TempDir()), LocalWorkers: 1, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code := postBlanks(s.APIHandler(), "/api/v1/sweeps", maxSpecBytes+1, true); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: %d, want 413", code)
	}
	if code := postBlanks(s.APIHandler(), "/api/v1/sweeps", 16, true); code != http.StatusBadRequest {
		t.Errorf("blank spec: %d, want 400", code)
	}
}

// TestRunBodyBounded: a run request of undeclared length is cut off at
// maxRunRequestBytes and answered 413, not read to its end and called
// malformed.
func TestRunBodyBounded(t *testing.T) {
	wk := &Worker{Name: "w", Run: stubRun}
	if code := postBlanks(wk.Handler(), "/api/v1/run", maxRunRequestBytes+1, false); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized run request: %d, want 413", code)
	}
	if code := postBlanks(wk.Handler(), "/api/v1/run", 16, false); code != http.StatusBadRequest {
		t.Errorf("blank run request: %d, want 400", code)
	}
}
