package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/rapids"
)

// TestCacheKeyPinned pins the hex key of one fixed request, so any change
// to the key encoding fails here. A change that moves it on purpose — one
// that alters the Result of an existing spec — bumps cacheKeyVersion and
// updates the constant below in the same commit (DESIGN.md §5).
func TestCacheKeyPinned(t *testing.T) {
	const want = "4bec42ef2c79281dfbe6e533ca5c457587c2938775f10536ecb8aacbca879d6b"
	req := JobRequest{
		Generate: "c432",
		Options:  rapids.Spec{Iters: 3, Window: 0.005, Regions: 8},
	}
	if got := cacheKey(req, rapids.FormatAuto); got != want {
		t.Fatalf("cache key = %s, pinned %s", got, want)
	}
	// Workers and a deadline never change a completed Result, so they
	// must not change the key either.
	req.Options.Workers = 4
	req.Options.TimeoutMS = 60000
	if got := cacheKey(req, rapids.FormatAuto); got != want {
		t.Fatalf("workers or deadline moved the cache key: %s, pinned %s", got, want)
	}
}

// TestResultPinned pins a digest of the JSON Result (Elapsed zeroed) of
// two fixed jobs: c432 at the defaults, and c432 with restart rounds and a
// criticality window. A change that moves either digest alters the Result
// of an existing spec, so it must bump cacheKeyVersion and update
// TestCacheKeyPinned in the same commit (DESIGN.md §5), then re-pin here.
func TestResultPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full optimizations")
	}
	for _, tc := range []struct {
		name string
		spec rapids.Spec
		want string
	}{
		{"defaults", rapids.Spec{},
			"137a9d9c4002ca1dac3a19b48cabbbda02d1055e5caacd9af4e22910397d3469"},
		{"rounds-windowed", rapids.Spec{Regions: 8, Window: 0.005},
			"b79e36e79e70b725160c8c185426b8837668572a09f92131935a0f0fa2edc74c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := directRun(t, JobRequest{Generate: "c432", Place: &PlaceSpec{}, Options: tc.spec})
			res.Elapsed = 0
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("Result digest = %s, pinned %s\n%s\n"+
					"A change to the Result of an existing spec must bump cacheKeyVersion "+
					"(rapids/server/cache.go) and re-pin TestCacheKeyPinned; see DESIGN.md §5.",
					got, tc.want, b)
			}
		})
	}
}
