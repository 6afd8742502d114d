package distrib

import (
	"encoding/hex"
	"runtime"
	"testing"

	"rldecide/internal/rl/sac"
)

// TestParamDigestPinned pins the trained parameters of one PPO and one SAC
// run at a tiny budget, bit for bit: a last-ulp change anywhere in
// training (the product kernel, the activations, Adam, the losses, math)
// moves the digest even when the rewards and the virtual cluster's figures
// do not.
//
// The pins hold only on an amd64 host with FMA: math.Exp, and through it
// math.Tanh, take a different path without FMA (run the test under
// GODEBUG=cpu.fma=off to see it fail), and other architectures round
// differently where the Go compiler fuses, so the test skips off amd64.
// Re-record them only with a change that is meant to move training's bits,
// and say why.
func TestParamDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned digests are of an amd64 host with FMA; GOARCH is " + runtime.GOARCH)
	}
	for _, tc := range []struct {
		name string
		cfg  TrainConfig
		want string
	}{
		{"ppo", toyCfg(StableBaselines, PPO, 1, 2), "0c4abd9d1c6ea8efaa3e9ac1e745c1398bf6b10a8b3dedbddeefb0e020b18b88"},
		{"sac", toyCfg(TFAgents, SAC, 1, 2), "9edb5a7d02021deefa998c1711c98c11e77f526809abfe2f8d8c3371ed63fd1f"},
	} {
		tc.cfg.TotalSteps = 512
		tc.cfg.EvalEpisodes = 1
		if tc.cfg.Algo == SAC {
			tc.cfg.SACConfig = &sac.Config{StartSteps: 128, Batch: 32, BufferSize: 1024}
		}
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(res.ParamDigest[:]); got != tc.want {
			t.Errorf("%s: parameter digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
