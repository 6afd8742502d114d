package maporder

import (
	"fmt"
	"io"
	"sort"
)

// SortedKeys collects then sorts, so iteration order never escapes.
func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DumpSorted writes entries in sorted key order.
func DumpSorted(w io.Writer, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%g\n", k, m[k])
	}
}

// Invert writes into another map: order-insensitive, allowed.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Total accumulates a commutative reduction: allowed.
func Total(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// GroupByKey appends each value under its own key: whatever order the
// keys come in, every key's slice receives the same values in the same
// order, so the append is order-insensitive.
func GroupByKey(runs []map[string]float64) map[string][]float64 {
	samples := map[string][]float64{}
	for _, run := range runs {
		for name, v := range run {
			samples[name] = append(samples[name], v)
		}
	}
	return samples
}
