package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/rapids"
)

// The correctness checks the benchmark applies to the program's outputs.
// Each returns nil when the output is right; the workloads count a
// non-nil error as a failed operation.

// checkVerified requires an Optimize run to have passed its simulation
// equivalence check.
func checkVerified(res *rapids.Result, err error) error {
	if err != nil {
		return err
	}
	if res.Verification != rapids.VerifyPassed {
		return fmt.Errorf("verification %s, want passed", res.Verification)
	}
	return nil
}

// qor is the deterministic outcome of one optimizer run.
type qor struct {
	InitialDelayNS, FinalDelayNS float64
	InitialAreaUM2, FinalAreaUM2 float64
	Swaps, Resizes, Iterations   int
}

func qorOf(r *rapids.Result) qor {
	return qor{r.InitialDelayNS, r.FinalDelayNS, r.InitialAreaUM2, r.FinalAreaUM2, r.Swaps, r.Resizes, r.Iterations}
}

// checkSameQoR requires two runs of one input and seed to agree exactly.
func checkSameQoR(first, again qor) error {
	if first != again {
		return fmt.Errorf("QoR differs across passes of one seed: %+v then %+v", first, again)
	}
	return nil
}

// checkLocations requires every cell placed before the optimizer to sit
// where it was afterwards; cells the optimizer added are not compared.
func checkLocations(before, after map[string][2]float64) error {
	for name, at := range before {
		now, ok := after[name]
		if !ok {
			continue // an inverter the optimizer deleted
		}
		if now != at {
			return fmt.Errorf("cell %s moved from %v to %v", name, at, now)
		}
	}
	return nil
}

// checkParity requires the session's final delay to match a
// from-scratch analysis of the committed circuit.
func checkParity(sessionNS, fullNS float64) error {
	if math.Abs(sessionNS-fullNS) > 1e-9 || math.IsNaN(sessionNS) {
		return fmt.Errorf("session final delay %.12f ns, full analysis %.12f ns", sessionNS, fullNS)
	}
	return nil
}

// checkRepeat requires a repeated submission's result to be
// byte-identical to the cold run's.
func checkRepeat(cold, repeat []byte) error {
	if !bytes.Equal(cold, repeat) {
		return fmt.Errorf("repeat result differs from the cold result (%d vs %d bytes)", len(repeat), len(cold))
	}
	return nil
}
