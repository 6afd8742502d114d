package analysis

import (
	"errors"
	"os"

	"rldecide/internal/journal"
	"rldecide/internal/obs"
)

// ReadTrace loads a trace stream from disk: journal.ReadSegmentedLines
// over its sealed segments and active file, so a torn tail of the active
// file yields the valid prefix plus an error wrapping journal.ErrTruncated
// — a dying daemon never breaks analysis — while damage anywhere else
// fails the read. A missing stream yields no events and no error — a
// daemon that never traced is empty, not broken.
func ReadTrace(path string) ([]obs.Event, error) {
	events, err := journal.ReadSegmentedLines(path, unmarshal[obs.Event])
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return events, err
}
