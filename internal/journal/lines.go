package journal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// maxLine is the longest line any stream reader accepts. A recorded
// trajectory is the longest line any writer produces.
const maxLine = 16 * 1024 * 1024

// ReadLines decodes the JSON Lines in r, one value per non-blank line,
// with the journal's torn-tail rule: a malformed final line yields the
// valid prefix plus an error wrapping ErrTruncated; a malformed line
// followed by further values is corruption and fails the whole read.
func ReadLines[T any](r io.Reader, decode func(line []byte, v *T) error) ([]T, error) {
	out, _, _, err := scan(r, decode)
	return out, err
}

// ReadSegmentedLines is ReadLines over a possibly-rotated stream written
// by a SegWriter at path: sealed segments in rotation order, then the
// active file. Sealed segments were rotated on line boundaries, so any
// damage in them is corruption, not a crash tail, and fails the read;
// only the active file gets ReadLines' torn-tail tolerance. A stream with
// no files at all is an error wrapping os.ErrNotExist.
func ReadSegmentedLines[T any](path string, decode func(line []byte, v *T) error) ([]T, error) {
	segs, err := SegmentFiles(path)
	if err != nil {
		return nil, err
	}
	return segmented(path, segs, decode, readFile[T])
}

// segmented reads the sealed segments segs of the stream at path strictly
// and then its active file with active. A missing active file after sealed
// segments is a rotation that just happened: the next write recreates it.
func segmented[T any](path string, segs []string, decode func([]byte, *T) error,
	active func(string, func([]byte, *T) error) ([]T, error)) ([]T, error) {
	var out []T
	for _, seg := range segs {
		vs, err := readFile(seg, decode)
		if err != nil {
			// %v: a sealed segment's torn tail or absence is corruption,
			// never the tolerable ErrTruncated or os.ErrNotExist.
			return nil, fmt.Errorf("journal: sealed segment %s: %v", seg, err)
		}
		out = append(out, vs...)
	}
	vs, err := active(path, decode)
	if out == nil {
		out = vs // the one-file stream: no copy
	} else {
		out = append(out, vs...)
	}
	if errors.Is(err, os.ErrNotExist) && len(segs) > 0 {
		return out, nil
	}
	return out, err
}

func readFile[T any](path string, decode func([]byte, *T) error) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLines(f, decode)
}

// RepairLines is RepairFile for any line type: it reads the file at path
// with ReadLines' torn-tail rule and leaves it ending on a line boundary,
// so that appends after a crash start a line of their own.
func RepairLines[T any](path string, decode func(line []byte, v *T) error) ([]T, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out, end, open, err := scan(f, decode)
	_ = f.Close() // only read
	switch {
	case errors.Is(err, ErrTruncated):
		return out, os.Truncate(path, end)
	case err == nil && open:
		return out, terminate(path)
	default:
		return out, err
	}
}

// terminate appends the newline a whole but unterminated final line lacks.
func terminate(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("\n"); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// scan is ReadLines, and tells RepairLines what it needs to mend the input
// without rewriting it: end is the length of the longest prefix holding
// only whole values and blank lines — the offset of the torn line under
// ErrTruncated, everything read otherwise — and open reports that this
// prefix is not empty and does not end in a newline. Each value is decoded
// in place in out, so a decoder reached through a func value costs no
// allocation of its own per line.
//
// The first buffer is 64 kB, or the size of a smaller file plus the one
// byte that lets its last read see the end: a state directory holds many
// short journals. A line longer than the buffer grows it, up to maxLine.
func scan[T any](r io.Reader, decode func([]byte, *T) error) (out []T, end int64, open bool, err error) {
	size := int64(64 * 1024)
	if f, ok := r.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Size() < size {
			size = fi.Size() + 1
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, size), maxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		if advance > 0 {
			end += int64(advance)
			open = data[advance-1] != '\n'
		}
		return advance, token, err
	})
	line := 0
	var badErr error
	var badLine int
	var badStart int64
	var zero T
	for start := end; sc.Scan(); start = end {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if badErr != nil {
			// The malformed line was not the last one: mid-file corruption.
			return nil, 0, false, fmt.Errorf("journal: line %d: %w", badLine, badErr)
		}
		out = append(out, zero)
		if err := decode(sc.Bytes(), &out[len(out)-1]); err != nil {
			out = out[:len(out)-1]
			badErr, badLine, badStart = err, line, start
		}
	}
	if len(out) == 0 {
		out = nil // not even the slot of a line that failed to decode
	}
	if err := sc.Err(); err != nil {
		return out, 0, false, err
	}
	if badErr != nil {
		return out, badStart, false, fmt.Errorf("journal: line %d: %v: %w", badLine, badErr, ErrTruncated)
	}
	return out, end, open, nil
}
