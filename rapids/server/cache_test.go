package server

import (
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
