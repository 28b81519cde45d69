package biclique

import (
	"fmt"
	"testing"

	"fastjoin/internal/window"
)

// refStore builds the map reference store (window.NewRef*) for the
// config, in place of the chunked store the system always uses.
func refStore(cfg *Config) window.Store {
	if cfg.Window > 0 {
		return window.NewRefWindowed(cfg.Window.Nanoseconds(), cfg.SubWindows)
	}
	return window.NewRef()
}

// TestChaosStoreDifferential is the store differential at full-system
// scale: every chaos profile runs with the chunked store and with the map
// reference store — and, since hot-key splitting salts stores across
// instances, with splitting both off and on — and each run must emit
// exactly the brute-force reference pair set. The map rows swap the
// reference in through the storeFactory test seam, so a semantics bug in
// the arena layout — under migration, rollback, replay, and salted store
// traffic — shows as a chunked row failing beside a passing map row. The
// name matches `make chaos`'s -run 'Chaos' filter.
func TestChaosStoreDifferential(t *testing.T) {
	profiles := []string{"droponly", "delayonly", "duponly", "mixed"}
	impls := []struct {
		name    string
		factory func(*Config) window.Store
	}{
		{"chunked", nil},
		{"map", refStore},
	}
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for _, profile := range profiles {
		for _, si := range impls {
			for _, split := range []bool{false, true} {
				for seed := uint64(1); seed <= uint64(seeds); seed++ {
					profile, si, split, seed := profile, si, split, seed
					splitName := "off"
					if split {
						splitName = "on"
					}
					t.Run(fmt.Sprintf("%s/%s/split=%s/seed=%d", profile, si.name, splitName, seed), func(t *testing.T) {
						t.Parallel()
						mutate := []func(*Config){func(cfg *Config) {
							cfg.storeFactory = si.factory
						}}
						if split {
							mutate = append(mutate, enableSplit)
						}
						runChaos(t, profile, seed, 2000, mutate...)
					})
				}
			}
		}
	}
}
