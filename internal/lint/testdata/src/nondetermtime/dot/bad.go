// Package dot reads the wall clock through a dot import, which leaves no
// package qualifier to spell-check: only the resolved object says it is
// time.Now.
package dot

import . "time"

// Clock reads the wall clock through the dot import.
func Clock() Time {
	return Now() // want finding
}
