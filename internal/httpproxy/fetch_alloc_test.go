//go:build !race

// Not under -race, where sync.Pool drops a random share of what it is
// given, so the origin's net/http server allocates a random count.

package httpproxy

import (
	"context"
	"testing"

	"summarycache/internal/origin"
)

// TestOriginFetchAllocBudget pins what one origin fetch costs on a warm
// pooled connection: a 1 KiB document from an in-process origin.Server.
// AllocsPerRun counts every goroutine, so the count covers both ends: the
// fetcher's URL, response head and body, and the origin's net/http server.
func TestOriginFetchAllocBudget(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	p, err := Start(Config{Mode: ModeNone, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	target := origin.DocURL(org.URL(), "doc", 1<<10, 1)
	ctx := context.Background()
	fetch := func() {
		if body, _, err := p.fetchOrigin(ctx, target); err != nil || len(body) != 1<<10 {
			t.Fatalf("fetched %d bytes, %v", len(body), err)
		}
	}
	fetch() // dial the connection every measured fetch reuses
	const budget = 35
	if n := testing.AllocsPerRun(200, fetch); n != budget {
		t.Fatalf("fetchOrigin allocated %v times per fetch, want %d", n, budget)
	}
}
