// Metric-read true positives: live counter reads are schedule-dependent
// (the instruments are shared by every trial running side by side), so
// journaling one breaks replay even when the kernel arithmetic is
// bit-identical.
package determtaint

import (
	"src/determtaint/internal/journal"
	"src/determtaint/internal/obs"
)

// envSteps mirrors a process-wide counter that concurrent trials all bump.
var envSteps obs.Counter

// JournalMetric stores a live counter read in a trial record.
func JournalMetric(path string) error {
	v := float64(envSteps.Value())
	return journal.Append(path, journal.Record{Value: v}) // want finding: determinism-taint
}

// GaugeFieldWrite assigns a live gauge read into an existing record.
func GaugeFieldWrite(path string, g *obs.Gauge, rec *journal.Record) error {
	rec.Value = float64(g.Value()) // want finding: determinism-taint
	return journal.Append(path, *rec)
}
