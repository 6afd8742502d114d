package core

import stdctx "context"

// DrainAliased blocks but takes its context first under an aliased
// import: allowed.
func DrainAliased(ctx stdctx.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}
