// Package jsonlog is the one append-only JSONL file under the result store
// and the coordinator journal (which is also the fleet span log). DESIGN.md,
// "Append-only logs", states the rule the two share: one write(2) per record
// on an O_APPEND descriptor under an exclusive flock, a torn tail healed by
// the next Append, complete lines only from Scan. A torn tail is never an
// error: unterminated it is not delivered, healed it is a line that does not
// decode, which both callers skip.
package jsonlog

import (
	"bytes"
	"errors"
	"io"
	"os"
	"slices"
	"sync"
	"syscall"
)

// Log is one open JSONL file. All methods are safe for concurrent use.
type Log struct {
	f *os.File

	mu  sync.Mutex // Append, Scan (held across fn) and Close
	err error      // first Append or Close failure
	off int64      // Scan has consumed [0, off): complete lines only
	buf []byte     // Scan's read buffer, kept between calls
}

// Open opens path for appending and scanning, creating it if needed.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes record and a terminating '\n' as one write. record must not
// contain a newline. The first failure is kept for Close.
func (l *Log) Append(record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.append(record)
	if l.err == nil {
		l.err = err
	}
	return err
}

// append holds an exclusive flock on the file across the tail check and the
// write. Every appender takes it, so an unterminated tail seen under it is a
// tear, never another handle's line in flight; a writer that dies holding it
// releases it with its descriptor.
func (l *Log) append(record []byte) error {
	fd := int(l.f.Fd())
	if err := syscall.Flock(fd, syscall.LOCK_EX); err != nil {
		return &os.PathError{Op: "flock", Path: l.f.Name(), Err: err}
	}
	defer syscall.Flock(fd, syscall.LOCK_UN)
	line := make([]byte, 0, len(record)+2)
	if torn, err := l.tornTail(); err != nil {
		return err
	} else if torn {
		line = append(line, '\n')
	}
	line = append(append(line, record...), '\n')
	_, err := l.f.Write(line) // non-nil on a short write
	return err
}

// tornTail reports whether the file is non-empty and does not end in '\n'.
func (l *Log) tornTail() (bool, error) {
	fi, err := l.f.Stat()
	if err != nil || fi.Size() == 0 {
		return false, err
	}
	var last [1]byte
	_, err = l.f.ReadAt(last[:], fi.Size()-1)
	return last[0] != '\n', err
}

// Scan calls fn with each complete line (without its '\n') appended since
// the last Scan reached — by this handle or any other process — and the
// line's offset in the file. The file is only ever appended to, so
// [off, off+len(line)) names those bytes for as long as it exists: a caller
// may keep the pair and ReadAt it later instead of copying the line. The
// slice is only lent: it is overwritten after fn returns. fn must not call
// Append, Scan or Close.
func (l *Log) Scan(fn func(off int64, line []byte)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf == nil {
		l.buf = make([]byte, 0, 1<<16)
	}
	buf := l.buf[:0]
	for {
		buf = slices.Grow(buf, 1) // a line longer than the buffer: no cap, grow
		n, err := l.f.ReadAt(buf[len(buf):cap(buf)], l.off+int64(len(buf)))
		buf = buf[:len(buf)+n]
		rest := buf
		for i := bytes.IndexByte(rest, '\n'); i >= 0; i = bytes.IndexByte(rest, '\n') {
			fn(l.off+int64(len(buf)-len(rest)), rest[:i:i])
			rest = rest[i+1:]
		}
		l.off += int64(len(buf) - len(rest))
		buf = buf[:copy(buf, rest)]
		if err == io.EOF {
			if l.buf = buf; cap(buf) > 1<<20 {
				l.buf = nil // one giant line must not pin its size for good
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ReadAt reads len(p) bytes at offset off of the file (pread on the shared
// descriptor: no lock, safe beside Append and Scan). Fewer bytes than asked
// for is an error, as for os.File.ReadAt.
func (l *Log) ReadAt(p []byte, off int64) (int, error) {
	return l.f.ReadAt(p, off)
}

// Close closes the file and returns the first error the handle saw.
// Closing twice is harmless.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Close(); err != nil && !errors.Is(err, os.ErrClosed) && l.err == nil {
		l.err = err
	}
	return l.err
}
