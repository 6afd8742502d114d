package executor

// The dispatch decoders, for the fleet-study coverage test in package
// executor_test (which imports studyd, and studyd imports executor).
var (
	DecodeTrialRequest = decodeTrialRequest
	DecodeTrialResult  = decodeTrialResult
)
