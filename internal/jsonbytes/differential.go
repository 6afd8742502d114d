package jsonbytes

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
)

// Differential holds a byte-form reader to a reference reading of the same
// input, normally encoding/json's: what fast accepts, ref reads without
// error to a reflect.DeepEqual value; what ref rejects, fast declines; and
// a decline leaves fast's target zero. It reports whether fast accepted,
// and the first rule broken, if any.
func Differential[T any](in []byte, fast func([]byte, *T) bool, ref func([]byte, *T) error) (bool, error) {
	var got, want, zero T
	accepted := fast(in, &got)
	refErr := ref(in, &want)
	switch {
	case !accepted && !reflect.DeepEqual(got, zero):
		return false, fmt.Errorf("declined %q but wrote %+v", in, got)
	case accepted && refErr != nil:
		return true, fmt.Errorf("accepted %q, which the reference rejects: %v", in, refErr)
	case accepted && !reflect.DeepEqual(got, want):
		return true, fmt.Errorf("input %q\n fast: %+v\n  ref: %+v", in, got, want)
	}
	return accepted, nil
}

// Damaged returns the near misses of body a differential test puts to a
// reader beside body itself: one byte, chosen by rng, overwritten, dropped
// and doubled, and body torn off before it.
func Damaged(rng *rand.Rand, body []byte) [][]byte {
	if len(body) == 0 {
		return nil
	}
	at := rng.IntN(len(body))
	over := bytes.Clone(body)
	over[at] = byte(rng.Uint32())
	return [][]byte{
		over,
		append(bytes.Clone(body[:at]), body[at+1:]...),
		append(bytes.Clone(body[:at+1]), body[at:]...),
		body[:at],
	}
}
