package lru

import (
	"testing"
	"time"
)

// TestTimingPathAllocs pins the OpTiming hook's zero-allocation contract:
// the conditional defer in Get/Put must stay open-coded (no heap-escaping
// closure), with and without the hook installed.
func TestTimingPathAllocs(t *testing.T) {
	for _, timed := range []bool{false, true} {
		cfg := Config{Capacity: 1 << 20, MaxObjectSize: -1}
		if timed {
			cfg.OpTiming = func(op string, d time.Duration) {}
		}
		c := MustNewCache(cfg)
		c.Put(Entry{Key: "k", Size: 1})
		if n := testing.AllocsPerRun(100, func() { c.Get("k") }); n != 0 {
			t.Errorf("Get allocs (timed=%v) = %v, want 0", timed, n)
		}
	}
}
