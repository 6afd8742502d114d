// Package maporder is a lint fixture for the map-order rule.
package maporder

import (
	"fmt"
	"io"
)

// Keys appends map keys in randomized iteration order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want finding: append with no sort
		out = append(out, k)
	}
	return out
}

// Dump writes map entries to w in randomized iteration order.
func Dump(w io.Writer, m map[string]float64) {
	for k, v := range m { // want finding: Fprintf with no sort
		fmt.Fprintf(w, "%s=%g\n", k, v)
	}
}

type index struct{ byName map[string]int }

// Names appends the keys of a struct-field map in randomized order; only
// the field's declared type says the range is over a map.
func (ix index) Names() []string {
	var out []string
	for k := range ix.byName { // want finding: append with no sort
		out = append(out, k)
	}
	return out
}
