package jsonlog

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

func open(t testing.TB, path string) *Log {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// lines scans l and returns copies of the delivered lines.
func lines(t testing.TB, l *Log) []string {
	t.Helper()
	var out []string
	if err := l.Scan(func(_ int64, line []byte) { out = append(out, string(line)) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l := open(t, path)
	if got := lines(t, l); len(got) != 0 {
		t.Fatalf("empty log delivered %q", got)
	}
	for _, r := range []string{`{"a":1}`, `{"b":2}`} {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if got := lines(t, l); len(got) != 2 || got[0] != `{"a":1}` || got[1] != `{"b":2}` {
		t.Fatalf("first scan: %q", got)
	}
	// A second handle (another process) appends; Scan resumes where it was.
	if err := open(t, path).Append([]byte(`{"c":3}`)); err != nil {
		t.Fatal(err)
	}
	if got := lines(t, l); len(got) != 1 || got[0] != `{"c":3}` {
		t.Fatalf("incremental scan: %q", got)
	}
	// A crash-free run's bytes are the records and their newlines, no more.
	if b, _ := os.ReadFile(path); string(b) != "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n" {
		t.Fatalf("file bytes: %q", b)
	}
}

func TestAppendHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"to"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := open(t, path)
	if got := lines(t, l); len(got) != 1 {
		t.Fatalf("torn tail delivered: %q", got)
	}
	for _, r := range []string{`{"b":2}`, `{"c":3}`} {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	// The tear became its own line; only the first append paid a '\n' for it.
	if b, _ := os.ReadFile(path); string(b) != "{\"a\":1}\n{\"to\n{\"b\":2}\n{\"c\":3}\n" {
		t.Fatalf("file bytes: %q", b)
	}
	if got := lines(t, l); len(got) != 3 || got[0] != `{"to` || got[2] != `{"c":3}` {
		t.Fatalf("after heal: %q", got)
	}
}

// TestLargeRecord: the reader has no length cap the writer lacks. The
// parent's journal replay failed with "token too long" on a line this size.
func TestLargeRecord(t *testing.T) {
	l := open(t, filepath.Join(t.TempDir(), "log.jsonl"))
	big := bytes.Repeat([]byte("x"), 17<<20)
	for _, r := range [][]byte{[]byte("before"), big, []byte("after")} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	if err := l.Scan(func(_ int64, line []byte) { got = append(got, bytes.Clone(line)) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "before" || !bytes.Equal(got[1], big) || string(got[2]) != "after" {
		t.Fatalf("got %d lines", len(got))
	}
}

// TestAppendWaitsForLockedWriter: a line another descriptor is still
// writing under the lock is not a tear. Healing it would split the record
// (TestCacheMultiProcessAppend's blank line); Append must wait for the lock
// and then find a terminated tail.
func TestAppendWaitsForLockedWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	w, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := syscall.Flock(int(w.Fd()), syscall.LOCK_EX); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteString(`{"half":`); err != nil {
		t.Fatal(err)
	}
	l := open(t, path)
	done := make(chan error, 1)
	go func() { done <- l.Append([]byte(`{"b":2}`)) }()
	select {
	case err := <-done:
		t.Fatalf("Append did not wait for the writer holding the lock (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	if _, err := w.WriteString("1}\n"); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Flock(int(w.Fd()), syscall.LOCK_UN); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "{\"half\":1}\n{\"b\":2}\n" {
		t.Fatalf("file bytes: %q, want exactly the two records", b)
	}
}

// TestAppendErrorKeptForClose: a failed append is returned and is what
// Close reports.
func TestAppendErrorKeptForClose(t *testing.T) {
	l := open(t, filepath.Join(t.TempDir(), "log.jsonl"))
	if err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	err := l.Append([]byte("b"))
	if err == nil {
		t.Fatal("append on a closed descriptor succeeded")
	}
	if cerr := l.Close(); cerr != err {
		t.Fatalf("Close = %v, want the append's %v", cerr, err)
	}
}

func TestConcurrentAppendAndScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		l := open(t, path)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append([]byte(`{"k":"0123456789abcdef"}`)); err != nil {
					t.Error(err)
					return
				}
				if err := l.Scan(func(int64, []byte) {}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got := lines(t, open(t, path))
	if len(got) != writers*each {
		t.Fatalf("%d lines, want %d", len(got), writers*each)
	}
	for _, line := range got {
		if line != `{"k":"0123456789abcdef"}` {
			t.Fatalf("interleaved line %q", line)
		}
	}
}

// FuzzScan feeds arbitrary bytes to a log in three arbitrary pieces with a
// Scan after each, then appends a record onto whatever prefix that left.
func FuzzScan(f *testing.F) {
	f.Add([]byte("{\"a\":1}\n{\"b\":2}\n"), uint16(3), uint16(9), []byte(`{"r":0}`))
	f.Add([]byte("{\"a\":1}\n{\"torn"), uint16(8), uint16(8), []byte(`{"r":1}`))
	f.Add([]byte("\n\n\r\n"), uint16(1), uint16(2), []byte(``))
	f.Add([]byte("no newline at all"), uint16(0), uint16(40), []byte(`x`))
	f.Add([]byte{}, uint16(0), uint16(0), []byte(`{"first":true}`))
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16, record []byte) {
		if bytes.IndexByte(record, '\n') >= 0 {
			t.Skip("Append's contract: no newline in a record")
		}
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l := open(t, path)
		w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()

		a, b := min(int(cut1), len(data)), min(int(cut2), len(data))
		if a > b {
			a, b = b, a
		}
		var delivered []byte // every delivered line and the '\n' it ended in
		for _, piece := range [][]byte{data[:a], data[a:b], data[b:]} {
			if _, err := w.Write(piece); err != nil {
				t.Fatal(err)
			}
			err := l.Scan(func(off int64, line []byte) {
				if bytes.IndexByte(line, '\n') >= 0 {
					t.Fatalf("delivered line holds a newline: %q", line)
				}
				// The offset names the line in the file, now and later.
				if int(off) != len(delivered) {
					t.Fatalf("line %q delivered at offset %d, want %d", line, off, len(delivered))
				}
				at := make([]byte, len(line))
				if _, err := l.ReadAt(at, off); err != nil || !bytes.Equal(at, line) {
					t.Fatalf("ReadAt(%d) = %q, %v; want the line %q", off, at, err, line)
				}
				delivered = append(append(delivered, line...), '\n')
			})
			if err != nil {
				t.Fatal(err)
			}
			// Consumed is exactly the complete lines so far.
			if int(l.off) != len(delivered) || !bytes.HasPrefix(data, delivered) {
				t.Fatalf("off %d, delivered %q, of %q", l.off, delivered, data)
			}
		}
		if want := bytes.LastIndexByte(data, '\n') + 1; int(l.off) != want {
			t.Fatalf("off %d after all of %q, want %d", l.off, data, want)
		}

		if err := l.Append(record); err != nil {
			t.Fatal(err)
		}
		var last []byte
		n := 0
		if err := open(t, path).Scan(func(_ int64, line []byte) { last = bytes.Clone(line); n++ }); err != nil {
			t.Fatal(err)
		}
		if n == 0 || !bytes.Equal(last, record) {
			t.Fatalf("appended %q onto %q; a fresh scan's last line is %q", record, data, last)
		}
	})
}
